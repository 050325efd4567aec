"""Benchmark of the TW sparse model: offline TW-vs-dense and HTTP serving."""
