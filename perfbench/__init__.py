"""Seeded benchmark of the coregular library; see README.md."""
