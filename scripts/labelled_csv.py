"""The labelled-CSV writer shared by the demo scripts."""


def write_labelled_csv(path, X, labels):
    """Write a 2 x n sample matrix and its labels as x,y,label rows.

    Floats are written with repr, so the file loads back to exactly X.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,label\n")
        for j in range(X.shape[1]):
            fh.write(f"{float(X[0, j])!r},{float(X[1, j])!r},{int(labels[j])}\n")
