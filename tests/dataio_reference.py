"""Row-per-cell reference writers for the chunked writers in `stgw.dataio`.

These are the `csv.writer` + `fnum` forms of `write_coefficients`,
`write_classes`, `write_transition` and `save_checkpoint`: one formatted cell
at a time, the sort done on Python tuples over a dense N x N mask.  They live
here only so the tests can require the chunked writers to produce the same
bytes.
"""

import numpy as np

from stgw.dataio import (CHECKPOINT_MAGIC, CLASSES_HEADER, COEFFS_HEADER,
                         TRANSITION_HEADER, fnum, write_csv)


def write_transition(path, graph, transition):
    ids = graph.node_ids
    mask = graph.dense_adjacency() > 0
    np.fill_diagonal(mask, True)
    order = sorted(((ids[i], ids[j], i, j) for i, j in np.argwhere(mask)))
    write_csv(path, TRANSITION_HEADER,
              ([src, dst, fnum(transition.P[i, j])] for src, dst, i, j in order))


def write_coefficients(path, graph, weeks, table):
    n = graph.n
    ids = graph.node_ids
    rows = ([ids[i], t + 1, m + 1, fnum(table.values[t * n + i, m])]
            for i in range(n)
            for t in range(weeks)
            for m in range(table.filter_count))
    write_csv(path, COEFFS_HEADER, rows)


def write_classes(path, graph, weeks, phi_grid, labels_grid, theta_grid, score_grid):
    rows = ([nid, t + 1, fnum(phi_grid[i, t]), f"V{int(labels_grid[i, t])}",
             fnum(theta_grid[i, t]), int(score_grid[i, t])]
            for i, nid in enumerate(graph.node_ids)
            for t in range(weeks))
    write_csv(path, CLASSES_HEADER, rows)


def save_checkpoint(path, model):
    tensors = []
    for k, W in enumerate(model.layer1.weights):
        tensors.append((f"layer1.weight.{k}", W))
    for k, a in enumerate(model.layer1.attn):
        tensors.append((f"layer1.attn.{k}", a))
    tensors.append(("layer2.weight", model.layer2.weights[0]))
    tensors.append(("layer2.attn", model.layer2.attn[0]))
    tensors.append(("theta", model.theta))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CHECKPOINT_MAGIC + "\n")
        for name, arr in tensors:
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"tensor {name} {dims}\n")
            fh.write(" ".join(fnum(v) for v in arr.ravel()) + "\n")
