"""End-to-end tick benchmark for the shipped worlds (see README.md)."""
