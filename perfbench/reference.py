"""Reference laws for the benchmark, computed independently of the solver.

The model is written out again here from the filter's rules, so that a
change to tbstat's chain builders or kernels is checked against something
it cannot have changed:

- an arrival of size l to an idle buffer passes when l tokens are banked and
  otherwise opens the queue; to an occupied buffer it joins the tail when it
  fits and is dropped when it does not;
- a token grant serves the head packet when it completes its price, and is
  otherwise banked, capped at the bucket size.

Only states reachable from the full-bucket idle state are built.  The law
at grant instants is the null vector of ``expm(Q tau) H - I``, solved
densely.  Rows of ``expm(Q tau)`` come from SciPy's ``expm_multiply``, not
from tbstat's uniformization.  For unit sizes the law instead comes from
tbstat's periodic transfer chain in net coordinates, the unit-size model of
acceptance criterion 5, and the dense path is kept as a cross-check.  The
time average over one period, from which occupancy and per-size loss and
wait follow, is the top-right block of an augmented exponential.

Run as a script, it computes one scenario's reference and saves it:
``python3 perfbench/reference.py SCENARIO.json OUT.npz``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy.linalg as sl
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

# Rows of expm(Q tau) are computed this many at a time, which bounds the
# dense block held in memory at 8 * n * _BLOCK bytes.
_BLOCK = 512


def reachable_model(sizes, probs, rate, bucket, buffer_cap):
    """Reachable states and the sparse arrival generator and grant matrix.

    States are ``(tokens, buffer)`` pairs with ``buffer`` a tuple of sizes,
    numbered in the order the search finds them.
    """

    def arrive(tokens, buf, size):
        if not buf:
            return (tokens - size, ()) if tokens >= size else (tokens, (size,))
        if sum(buf) + size <= buffer_cap:
            return tokens, buf + (size,)
        return tokens, buf

    def grant(tokens, buf):
        if buf and tokens + 1 >= buf[0]:
            return tokens + 1 - buf[0], buf[1:]
        return min(bucket, tokens + 1), buf

    start = (bucket, ())
    index = {start: 0}
    states = [start]
    q_rows, q_cols, q_data = [], [], []
    grant_to = []
    i = 0
    while i < len(states):
        tokens, buf = states[i]
        targets = [grant(tokens, buf)] + [arrive(tokens, buf, s) for s in sizes]
        for target in targets:
            if target not in index:
                index[target] = len(states)
                states.append(target)
        grant_to.append(index[targets[0]])
        out = 0.0
        for target, prob in zip(targets[1:], probs):
            j = index[target]
            if j != i:
                q_rows.append(i)
                q_cols.append(j)
                q_data.append(rate * prob)
                out += rate * prob
        q_rows.append(i)
        q_cols.append(i)
        q_data.append(-out)
        i += 1
    n = len(states)
    gen = sp.csr_matrix((q_data, (q_rows, q_cols)), shape=(n, n))
    grants = sp.csr_matrix(
        (np.ones(n), (np.arange(n), grant_to)), shape=(n, n)
    )
    return states, gen, grants


def dense_stationary(gen, grants, period):
    """Stationary law of ``expm(gen * period) @ grants`` by a dense solve."""
    n = gen.shape[0]
    gen_t = (gen.T * period).tocsr()
    grants_t = grants.T.tocsr()
    # Holds P - I with its last column set to ones; its transpose, a
    # Fortran-ordered view, is the balance system with the normalization
    # row, which LAPACK factors in place.
    chain = np.empty((n, n))
    for lo in range(0, n, _BLOCK):
        hi = min(n, lo + _BLOCK)
        basis = np.zeros((n, hi - lo))
        basis[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
        rows_t = expm_multiply(gen_t, basis)  # columns: e_i expm(Q tau)
        chain[lo:hi, :] = (grants_t @ rows_t).T  # rows: e_i expm(Q tau) H
    chain[np.diag_indices(n)] -= 1.0
    chain[:, -1] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = sl.solve(chain.T, rhs, overwrite_a=True, check_finite=False)
    return pi / pi.sum()


def transfer_chain_stationary(states, rate, bucket, buffer_cap, period):
    """Unit-size law from tbstat's net-coordinate transfer chain."""
    from tbstat.markov import build_periodic_transfer_chain, stationary_dense

    pi_net = stationary_dense(
        build_periodic_transfer_chain(rate * period, buffer_cap, bucket)
    )
    # Net coordinate = backlog - tokens + bucket; on reachable unit-size
    # states a waiting packet means an empty bucket, so it is one-to-one.
    coords = np.array([len(buf) - tokens + bucket for tokens, buf in states])
    if len(set(coords.tolist())) != len(states):
        raise ValueError("net coordinates do not identify reachable states")
    out = pi_net[coords]
    if abs(pi_net.sum() - out.sum()) > 1e-12:
        raise ValueError("transfer-chain mass outside reachable states")
    return out


def period_average(gen, pi, period):
    """(1/tau) * integral over [0, tau] of pi @ expm(gen * s)."""
    n = gen.shape[0]
    eye = sp.identity(n, format="csr")
    zero = sp.csr_matrix((n, n))
    augmented = sp.bmat([[gen, eye], [zero, zero]], format="csr")
    start = np.concatenate([pi, np.zeros(n)])
    end = expm_multiply((augmented.T * period).tocsr(), start)
    return end[n:] / period


def compute(scenario: dict) -> dict:
    """Reference arrays for one scenario dictionary."""
    traffic, filt = scenario["traffic"], scenario["filter"]
    sizes = tuple(traffic["sizes"])
    probs = tuple(traffic["probs"])
    rate = float(traffic["rate"])
    bucket, buffer_cap = filt["bucket"], filt["buffer"]
    period = float(filt["period"])

    began = time.perf_counter()
    states, gen, grants = reachable_model(sizes, probs, rate, bucket, buffer_cap)
    dense = dense_stationary(gen, grants, period)
    if sizes == (1,):
        pi = transfer_chain_stationary(states, rate, bucket, buffer_cap, period)
        method = "transfer_chain"
    else:
        pi = dense
        method = "dense_expm_multiply"
    cross_check = float(np.abs(pi - dense).sum())
    averaged = period_average(gen, pi, period)

    tokens = np.array([t for t, _ in states])
    backlogs = np.array([sum(buf) for _, buf in states])
    occupancy = np.zeros((bucket + 1, buffer_cap + 1))
    np.add.at(occupancy, (tokens, backlogs), averaged)
    loss, wait = [], []
    for size, prob in zip(sizes, probs):
        blocked = (backlogs > 0) & (backlogs + size > buffer_cap)
        loss.append(float(averaged[blocked].sum()))
        queued = np.array([buf.count(size) for _, buf in states])
        wait.append(float(averaged @ queued) / ((1 - loss[-1]) * rate * prob))
    padded = np.zeros((len(states), buffer_cap), dtype=np.int64)
    for i, (_, buf) in enumerate(states):
        padded[i, : len(buf)] = buf
    return {
        "tokens": tokens,
        "buffers": padded,
        "pi": pi,
        "occupancy": occupancy,
        "sizes": np.array(sizes),
        "loss": np.array(loss),
        "wait": np.array(wait),
        "method": np.array(method),
        "cross_check_l1": np.array(cross_check),
        "seconds": np.array(time.perf_counter() - began),
    }


def states_of(ref) -> list[tuple[int, tuple[int, ...]]]:
    """The reference's states as ``(tokens, buffer)`` pairs."""
    return [
        (int(t), tuple(int(s) for s in row if s))
        for t, row in zip(ref["tokens"], ref["buffers"])
    ]


def main(argv: list[str]) -> int:
    scenario_path, out_path = Path(argv[0]), Path(argv[1])
    ref = compute(json.loads(scenario_path.read_text()))
    tmp = out_path.with_name(out_path.name + ".tmp.npz")
    np.savez(tmp, **ref)
    tmp.replace(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
