"""FLOW000 corpus: flow suppressions must carry a written rationale."""


def bare_suppression(pool, codec, data):
    try:
        return codec.decode(data)
    except ValueError:
        pool.flush_all()  # repro-lint: disable=FLOW002  # seeded: FLOW000
        raise


def justified_suppression(pool, registry):
    try:
        registry.adopt()
    except ValueError:
        # The registry owns the flushed pages and discards them itself.
        pool.flush_all()  # repro-lint: disable=FLOW002 -- the registry owns the flushed pages
        raise
