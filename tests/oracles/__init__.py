"""Independent reference implementations the tests compare nilgeom against.

The library never imports these: wedge algebra over the left-invariant frame
(``exterior``), the word-by-word BCH bracket ``nested`` (``algebra``), the
brute-force Q_n (``manifold``), the multivector hypersurface density, the
full-scan covering and the full-window Federer density (``measure``), and
the product-then-norm distance (``metrics``).
"""
