"""Known-clean: the kernel's own module may call it."""


def winnow_kernel(preference, vectors, candidates):
    return lambda members: members


def maximal_indices(ranks, candidates):
    return winnow_kernel(None, None, candidates)(candidates)
