"""Experiment harness: one runner, plus scenario builders per figure."""
