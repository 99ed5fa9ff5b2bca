"""Benchmark of the diskfill command line; see README.md."""
