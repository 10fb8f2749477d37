"""Should-flag fixture for the `kernel-purity` rule."""

import time  # clocks are banned in kernel modules

import numpy as np

from repro.kernels.base import box_image

_scratch = {}  # hidden module-level mutable state


def ssssm_bad(c, a, b, ws):
    a_data = a.data
    a_data[0] = time.time()       # mutates the read-only operand `a`
    b.data.fill(np.random.rand())  # mutates `b` and is nondeterministic
    return c


def gessm_bad(diag, b, ws, *, inv=None):
    inv[0, 0] = 1.0               # mutates the cached image other lanes read
    b.data[...] = (inv @ ws.dense2d)[0]


def ssssm_image_bad(c, a, b, ws, *, a_dense=None, b_dense=None, image=None):
    image.dense[...] -= a_dense[1] @ b_dense[1]
    a_dense[1][0, 0] = 0.0        # mutates the cached operand image other lanes read


def ssssm_unpack_bad(c, a, b, ws, *, a_dense=None, image=None):
    pa, a_img = box_image(a, 0) if a_dense is None else a_dense[:2]
    a_img[0, 0] = 0.0             # writes the cached image through the unpack
    image.dense[...] -= a_img @ b.data


def panel_bad(tri, b, *, merge):
    vals = tri.data
    vals[tri.src[0]] = 0.0        # the shared sweep mutates the diagonal block
    b.data[0] = vals[0]


def prod_bad(blocks, starts, src, m, *, transposed=False):
    src[0] = 0.0                  # solve product mutates its source segment
    blocks[0].data[:] = 1.0       # and a factor block it should only read
    return np.zeros((len(blocks), m))


def diag_bad(diag, x, *, lower):
    diag.data[0] = 1.0            # diag solve mutates the factor block
    return x
