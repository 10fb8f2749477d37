"""Should-pass fixture for the `no-implicit-float64` rule."""

import numpy as np


def scratch_in_factor_dtype(blk):
    return np.zeros(blk.nnz, dtype=blk.data.dtype)


def deliberately_double(n):
    return np.zeros(n, dtype=np.float64)  # double on purpose, and says so


def positional_dtype(n):
    return np.empty(n, np.float32)        # positional dtype argument


def full_with_dtype(n):
    return np.full(n, 1.0, dtype=np.float32)


def like_constructors_inherit(x):
    a = np.zeros_like(x)                  # *_like inherits the dtype
    b = np.empty_like(x)
    return a, b


def integer_workspaces(n):
    return np.zeros(n, dtype=np.int64)    # non-float dtypes equally explicit


def splatted_args_unknowable(shape_and_dtype):
    return np.zeros(*shape_and_dtype)     # arity unknowable — not flagged
