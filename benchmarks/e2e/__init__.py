"""End-to-end benchmark of the WholeGraph reproduction (see README.md)."""
