"""The labelled-CSV writer shared by the demo scripts."""

import numpy as np


def write_labelled_csv(path, X, labels):
    """Write a 2 x n sample matrix and its labels as x,y,label rows.

    Floats are written with 17 significant digits, so the file loads back
    to exactly X.
    """
    np.savetxt(path, np.column_stack([X[0], X[1], labels]),
               fmt=["%.17g", "%.17g", "%d"], delimiter=",",
               header="x,y,label", comments="")
