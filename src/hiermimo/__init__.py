"""Hierarchical precoding simulator for multi-cell massive MIMO downlink.

Import from the modules (``hiermimo.cli``, ``hiermimo.scheduler``, ...):
the package root binds no other name."""

__version__ = "0.1.0"
