#!/usr/bin/env python3
"""Rank the five-page toy web by its random-walk stationary distribution."""

import numpy as np

import finitetop as ft

WEB = (
    (0, 1, 0, 0, 0),
    (0.5, 0, 0.5, 0, 0),
    (1 / 3, 1 / 3, 0, 0, 1 / 3),
    (1, 0, 0, 0, 0),
    (0, 1 / 3, 1 / 3, 1 / 3, 0),
)


def main():
    m = ft.StochasticMatrix(WEB)
    p = ft.pagerank(m, tol=1e-9, max_iter=200)
    print("stationary distribution:", np.round(p, 3))
    print("page ranking (best first):", [int(i) + 1 for i in np.argsort(-np.asarray(p))])
    # every row of a high power of the matrix is the stationary distribution
    oracle = np.linalg.matrix_power(np.array(m.rows, dtype=float), 1 << 20)[0]
    print("squaring oracle max deviation:", float(np.max(np.abs(np.asarray(p) - oracle))))


if __name__ == "__main__":
    main()
