"""Small shared utilities: the statistics container."""

from repro.util.stats import StatsBag

__all__ = ["StatsBag"]
