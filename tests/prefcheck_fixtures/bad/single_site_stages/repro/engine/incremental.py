"""Known-bad: the view maintainer picks a winnow kernel of its own."""

from repro.engine.algorithms import winnow_kernel


def refresh(preference, vectors, candidates):
    return winnow_kernel(preference, vectors, candidates)(candidates)
