"""perfbench: the repository's one benchmark (see perfbench/README.md)."""
