"""Replicated ledger: transactions, tables, pBFT nodes, client, audit."""
