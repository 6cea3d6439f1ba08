"""Word-by-word group-law oracle for the compiled BCH evaluator."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from nilgeom.algebra import GradedGroup


def nested(group: GradedGroup, word: Sequence[int], *letters: np.ndarray) -> np.ndarray:
    """Right-nested bracket ``[w0, [w1, ... wk]]`` word by word, one public
    ``bracket`` call per letter.  ``letters[s]`` is letter ``s``."""
    acc = letters[word[-1]]
    for s in word[-2::-1]:
        acc = group.bracket(letters[s], acc)
    return acc
