"""PCG64's seed sequence for precomputed words, imported on the first stream taken: it
loads ``numpy.random``, which no command's setup needs."""

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class SeedWords(ISeedSequence):
    """One stream's PCG64 seed words, seed then increment. A subclass, not a registered
    class: PCG64 checks each seed with ``isinstance``, which caches only subclasses."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words  # PCG64 asks for generate_state(4, np.uint64)
