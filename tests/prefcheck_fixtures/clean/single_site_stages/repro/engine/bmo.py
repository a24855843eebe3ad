"""Known-clean: the one filter that asks for a winnow kernel."""

from repro.engine.algorithms import winnow_kernel


def bmo_filter(preference, vectors, candidates):
    return winnow_kernel(preference, vectors, candidates)(candidates)
