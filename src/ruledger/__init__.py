"""Ledger-verified trigger-action automation.

A replicated ledger orders every trigger event and action request produced
by a smart-home rule pipeline, and three verification contracts decide
whether each one may take effect.  The package also ships the surrounding
cast: wallet agents, simulated devices and gateways, an honest mock
trigger-action platform, and a harness that runs scenarios, attack suites
(a compromised platform's forgeries among them) and benchmarks on a
deterministic simulated network.
"""

__version__ = "0.1.0"
