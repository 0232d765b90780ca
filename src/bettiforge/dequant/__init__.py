"""Classical randomized estimation of normalized Betti numbers.

Submodules:
    operators  penalized squared Dirac operator and its one-sparse
               decomposition, built on the weight-k sector, whose basis
               states are the path anchors
    paths      closed eigenvector paths, the pattern and magnitude measures,
               batched exact draws, and Metropolis-Hastings with its redraw
               and anchor proposals taken from those draws in blocks
    estimator  the batched clique draw, which returns sector positions, and
               the sampling algorithm
"""
