"""Classical randomized estimation of normalized Betti numbers.

Submodules:
    operators  penalized squared Dirac operator and one-sparse decomposition
    paths      closed eigenvector paths, the pattern and magnitude measures,
               batched exact draws, and Metropolis-Hastings with its redraw
               and anchor proposals taken from those draws in blocks
    estimator  the batched clique draw and the sampling algorithm
"""
