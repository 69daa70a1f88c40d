"""Outside-in benchmark of the repository's program (see README.md)."""
