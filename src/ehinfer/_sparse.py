"""The sparse transition type of `mdp.FiniteMdp`.

Kept apart from `mdp` because it subclasses a scipy.sparse class, and
scipy.sparse is the slowest import of the command line: only the code that
builds or walks a transition matrix imports this module.
"""

import scipy.sparse as sp


class TransitionMatrix(sp.csr_array):
    """CSR transition matrix; nbytes, as on an ndarray, is its stored size."""

    @property
    def nbytes(self):
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes
