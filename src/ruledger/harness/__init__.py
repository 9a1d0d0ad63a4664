"""Scenario runner, attack suite, benchmarks, and the command line tool."""

from .scenario import load_scenario
from .world import World, run_scenario

__all__ = ["load_scenario", "World", "run_scenario"]
