"""Experiment harness: the paper's tables and figures, and extensions."""
