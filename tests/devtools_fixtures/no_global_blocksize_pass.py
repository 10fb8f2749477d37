"""Clean fixture for ``no-global-blocksize``: block dims come from the
partition's boundary-derived accessors."""


def forward_sweep(f, y):
    for k in range(f.nb):
        seg = f.block_slice(k)
        y[seg] *= 2.0
    return y


def run_panel(blocks, out):
    order = blocks.block_order(0)
    out[:order] = 0.0
    return out


def scratch_for(ws, f):
    order = f.max_block_order
    return ws.dense("a", (order, order))
