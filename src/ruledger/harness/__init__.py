"""Scenario runner, attack suite, benchmarks, and the command line tool."""
