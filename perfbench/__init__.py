"""Steady-state, layer-by-layer benchmark of the distributed 3-D FFT (see run.py)."""
