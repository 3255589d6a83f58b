"""The block width is an operand, not a code path.

Below ``PMEOperator.apply_block`` a column's bytes must not depend on
the block it rides in: column ``j`` of an ``s``-wide product equals the
1-wide product of column ``j`` **bytewise**, at every width, in both
kernel modes and on both backends.  Served-vs-direct identity
(``repro.serve.batching``), hybrid per-device column shares and the
``MAX_BLOCK_COLUMNS`` chunking all rest on it.
"""

import numpy as np
import pytest

from repro import PMEOperator, PMEParams
from repro.exec import ExecutionContext
from repro.systems import random_suspension

WIDTHS = [*range(1, 34), 40, 64]
WIDEST = max(WIDTHS)
PARAMS = PMEParams(xi=0.9, r_max=5.0, K=16, p=4)


@pytest.fixture(scope="module")
def products():
    """``backend -> {name: product}``, one operator per backend."""
    with ExecutionContext("serial") as serial, \
            ExecutionContext("threads", workers=2) as threads:
        yield {"serial": _products(serial), "threads": _products(threads)}


@pytest.fixture(scope="module")
def references():
    """1-wide products, computed once per (kernel mode, backend)."""
    return {}


def _products(ctx):
    """``name -> product(columns)``: the product of the selected columns
    of one fixed operand, column axis first."""
    susp = random_suspension(60, 0.2, seed=11)
    op = PMEOperator(susp.positions, susp.box, PARAMS, context=ctx)
    n, K = op.n, PARAMS.K
    rng = np.random.default_rng(21)
    F = rng.standard_normal((3 * n, WIDEST))
    V = rng.standard_normal((n, WIDEST))
    G = rng.standard_normal((WIDEST, K ** 3))
    S = (rng.standard_normal((3, WIDEST) + op.mesh.rshape)
         + 1j * rng.standard_normal((3, WIDEST) + op.mesh.rshape))
    return {
        "BlockCSR.matmat":
            lambda c: op.real.bcsr.matmat(F[:, c], context=ctx).T,
        "RealSpaceOperator.apply_block":
            lambda c: op.real.apply_block(F[:, c], context=ctx).T,
        "InterpolationMatrix.spread_batch":
            lambda c: op.interp.spread_batch(V[:, c], context=ctx),
        "InterpolationMatrix.interpolate_batch":
            lambda c: op.interp.interpolate_batch(G[c], context=ctx),
        "InfluenceFunction.apply_batch":
            lambda c: op.influence.apply_batch(S[:, c].copy()).swapaxes(0, 1),
        "PMEOperator.apply_block":
            lambda c: op.apply_block(F[:, c]).T,
    }


@pytest.mark.parametrize("backend", ["serial", "threads"])
@pytest.mark.parametrize("s", WIDTHS)
def test_column_bytes_do_not_depend_on_block_width(
        s, backend, kernel_mode, products, references):
    key = (kernel_mode, backend)
    if key not in references:
        references[key] = {
            name: [product(slice(j, j + 1))[0].tobytes()
                   for j in range(WIDEST)]
            for name, product in products[backend].items()}
    for name, product in products[backend].items():
        wide = product(slice(0, s))
        assert len(wide) == s
        different = [j for j in range(s)
                     if wide[j].tobytes() != references[key][name][j]]
        assert not different, (name, s, different)
