"""Should-pass fixture for the `kernel-purity` rule."""

import numpy as np

SSSSM_VARIANTS = {}  # ALL_CAPS registry constants are allowed


def ssssm_good(c, a, b, ws):
    c_data = c.data               # local aliasing of the output is fine
    buf = ws.dense2d
    buf.fill(0.0)                 # the workspace is writable
    np.subtract.at(c_data, np.arange(1), a.data[:1] * b.data[:1])
    return c


def gessm_good(diag, b, ws, *, inv=None, image=None):
    if inv is None:
        inv = np.eye(2)           # rebinding the name is not a mutation
    b.data[...] = (inv @ ws.dense2d)[0]  # reads the cached image, writes b
    if image is not None:
        image.dense = inv @ image.dense  # b's own dense image is writable


def ssssm_image_good(c, a, b, ws, *, a_dense=None, b_dense=None, image=None):
    image.dense[0, :] -= a_dense[1][0] @ b_dense[1]  # subtracts into C's image


def panel_good(tri, b, *, merge):
    vals = tri.data[tri.src]      # a gathered copy of the triangle's values
    b.data[0] = b.data[0] - vals[0]  # the solved block is the only one written


def prod_good(blocks, starts, src, m, *, transposed=False):
    stack = np.empty((len(blocks), m))
    for out, blk in zip(stack, blocks):
        out[...] = np.bincount(blk.indices, weights=blk.data * src[:1])  # its own stack only
    return stack


def diag_good(diag, x, *, lower):
    x[0] = x[0] / diag.data[-1]   # the RHS segment is the designated output
    return x
