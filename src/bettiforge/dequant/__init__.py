"""Classical randomized estimation of normalized Betti numbers.

Submodules:
    operators  penalized squared Dirac operator and one-sparse decomposition
    paths      closed eigenvector paths, the pattern and magnitude measures,
               batched exact draws, Metropolis-Hastings
    estimator  the sampling algorithm and the dense Trotterized reference
"""
