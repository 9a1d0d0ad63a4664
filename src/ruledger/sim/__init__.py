"""Deterministic discrete-event simulation core: clock, scheduler, network."""
