"""FLOW002 corpus: state mutation from cleanup blocks (the PR 4 class)."""


class Flusher:
    def flush_dirty(self):
        self.pool.write_run(0, 1, b"x")


class BadBracket:
    def direct_flush_in_finally(self, data):
        try:
            self.apply(data)
        finally:
            self.pool.disk.poke_pages(0, 1, data)  # seeded: FLOW002

    def transitive_flush_in_finally(self, flusher, data):
        try:
            self.apply(data)
        finally:
            flusher.flush_dirty()  # seeded: FLOW002

    def mutation_in_except(self, data):
        try:
            self.apply(data)
        except ValueError:
            self.pool.flush_all()  # seeded: FLOW002
            raise

    def unfix_in_finally_is_sanctioned(self, page_id):
        self.pool.fix(page_id)
        try:
            return self.pool.page(page_id)
        finally:
            self.pool.unfix(page_id)

    def flush_on_success_path(self, data):
        self.apply(data)
        self.pool.flush_all()

    def bookkeeping_in_finally_is_fine(self):
        try:
            self.apply(b"")
        finally:
            self.depth -= 1
