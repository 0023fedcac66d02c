"""End-to-end benchmark of KGLink serving: see ``perfbench/README.md``."""
