"""Independent reference implementations the tests compare nilgeom against.

The library never imports these: wedge algebra over the left-invariant frame
(``exterior``), the word-by-word BCH bracket ``nested`` and the one-subspace
classification (``algebra``), the brute-force Q_n and the per-cell degree-map
analysis (``manifold``), the multivector hypersurface density, the
full-scan covering, the full-window Federer density and the row-wise body
members (``measure``), the product-then-norm distance (``metrics``), and the
row-wise samplers (``mc``).
"""
