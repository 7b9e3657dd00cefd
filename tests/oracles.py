"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written in the most literal style
available -- explicit Python loops, textbook formulas transcribed term
by term, exhaustive enumeration where feasible -- so that agreement
with the vectorized library code is evidence of correctness rather
than a shared-bug tautology.  Only the data types are imported from the
package; no computational routine is reused.
"""

import itertools
import math

import numpy as np

MOMENT_KEYS = ("v200", "v020", "v002", "v110", "v101", "v011")

# (r, s, t) orders of each moment functional: r indexes y, s indexes x,
# t indexes z.
ORDERS = {
    "v200": (2, 0, 0),
    "v020": (0, 2, 0),
    "v002": (0, 0, 2),
    "v110": (1, 1, 0),
    "v101": (1, 0, 1),
    "v011": (0, 1, 1),
}


def naive_summary(y, x, z, n):
    """Per-stratum summary statistics via explicit loops (divisor N-1)."""
    N = len(y)
    my = sum(y) / N
    mx = sum(x) / N
    mz = sum(z) / N

    def cov(a, b, ma, mb):
        if N == 1:
            return 0.0
        return sum((ai - ma) * (bi - mb) for ai, bi in zip(a, b)) / (N - 1)

    return {
        "N": N,
        "n": n,
        "mean_y": my,
        "mean_x": mx,
        "mean_z": mz,
        "s_y": math.sqrt(cov(y, y, my, my)),
        "s_x": math.sqrt(cov(x, x, mx, mx)),
        "s_z": math.sqrt(cov(z, z, mz, mz)),
        "s_xy": cov(x, y, mx, my),
        "s_yz": cov(y, z, my, mz),
        "s_xz": cov(x, z, mx, mz),
    }


def _second_moment_numerators(stratum):
    """Map each moment key to its stratum-level expectation numerator."""
    return {
        "v200": stratum.s_y**2,
        "v020": stratum.s_x**2,
        "v002": stratum.s_z**2,
        "v110": stratum.s_xy,
        "v101": stratum.s_yz,
        "v011": stratum.s_xz,
    }


def _mean_scale(key, Y, X, Z):
    r, s, t = ORDERS[key]
    return Y**r * X**s * Z**t


def naive_moments(pop):
    """Unprimed moment functionals by direct per-stratum summation."""
    Y, X, Z = pop.mean_y, pop.mean_x, pop.mean_z
    N = pop.N
    out = dict.fromkeys(MOMENT_KEYS, 0.0)
    for st in pop.strata:
        w = st.N / N
        gamma = (1.0 - st.n / st.N) / st.n
        nums = _second_moment_numerators(st)
        for key in MOMENT_KEYS:
            r, s, t = ORDERS[key]
            out[key] += (
                w ** (r + s + t) * gamma * nums[key] / _mean_scale(key, Y, X, Z)
            )
    return out


def naive_dual_moments(pop):
    """Dual moment functionals carrying the per-stratum (-g)^(s+t) factor."""
    Y, X, Z = pop.mean_y, pop.mean_x, pop.mean_z
    N = pop.N
    out = dict.fromkeys(MOMENT_KEYS, 0.0)
    for st in pop.strata:
        w = st.N / N
        gamma = (1.0 - st.n / st.N) / st.n
        g = st.n / (st.N - st.n)
        nums = _second_moment_numerators(st)
        for key in MOMENT_KEYS:
            r, s, t = ORDERS[key]
            out[key] += (
                w ** (r + s + t)
                * gamma
                * (-g) ** (s + t)
                * nums[key]
                / _mean_scale(key, Y, X, Z)
            )
    return out


def naive_quadratic_form(kind, v, vd=None, theta=None, alpha1=None, alpha2=None):
    """Unit-free first-order MSE quadratic form, one closed form per kind."""
    if kind == "classical":
        return v["v200"]
    if kind == "combined_ratio":
        return v["v200"] + v["v020"] - 2.0 * v["v110"]
    if kind == "combined_product":
        return v["v200"] + v["v002"] + 2.0 * v["v101"]
    if kind == "ratio_cum_product":
        return (
            v["v200"] + v["v020"] + v["v002"]
            + 2.0 * (v["v101"] - v["v110"] - v["v011"])
        )
    if kind == "transformed_product":
        return v["v200"] + theta**2 * v["v020"] - 2.0 * theta * v["v110"]
    if kind == "tracy_product":
        return (
            v["v200"] + theta**2 * v["v020"] + v["v002"]
            - 2.0 * theta * v["v110"] + 2.0 * v["v101"]
            - 2.0 * theta * v["v011"]
        )
    if kind == "plikusas_dual":
        alpha1 = alpha2 = 1.0
        kind = "dual_family"
    if kind == "dual_family":
        return (
            v["v200"]
            + alpha1**2 * vd["v020"]
            + alpha2**2 * vd["v002"]
            + 2.0 * alpha1 * vd["v110"]
            - 2.0 * alpha2 * vd["v101"]
            - 2.0 * alpha1 * alpha2 * vd["v011"]
        )
    raise ValueError(f"unknown kind {kind!r}")


def naive_bias_dual(vd, mean_y, alpha1, alpha2):
    """First-order dual-family bias by direct substitution."""
    return mean_y * (
        alpha1 * vd["v110"]
        - alpha2 * vd["v101"]
        - alpha1 * alpha2 * vd["v011"]
        + alpha1 * (alpha1 - 1.0) / 2.0 * vd["v020"]
        + alpha2 * (alpha2 + 1.0) / 2.0 * vd["v002"]
    )


def parabola_vertex_theta(v):
    """theta minimizer recovered from three point evaluations.

    A quadratic is exactly determined by three points, so the vertex
    formula on f(-1), f(0), f(1) is an optimizer oracle that never
    touches the closed-form coefficients.
    """

    def f(t):
        return naive_quadratic_form("tracy_product", v, theta=t)

    num = f(-1.0) - f(1.0)
    den = 2.0 * (f(-1.0) - 2.0 * f(0.0) + f(1.0))
    return num / den


def stationary_alphas(v, vd):
    """(alpha1, alpha2) minimizer from black-box evaluations of the form.

    Gradient and Hessian of the dual-family quadratic are recovered by
    exact finite differences at unit steps (exact for a quadratic), and
    the stationary point is solved with ``numpy.linalg.solve`` -- a
    fully independent route to the optimum.
    """

    def f(a1, a2):
        return naive_quadratic_form("dual_family", v, vd, alpha1=a1, alpha2=a2)

    g1 = (f(1.0, 0.0) - f(-1.0, 0.0)) / 2.0
    g2 = (f(0.0, 1.0) - f(0.0, -1.0)) / 2.0
    h11 = f(1.0, 0.0) + f(-1.0, 0.0) - 2.0 * f(0.0, 0.0)
    h22 = f(0.0, 1.0) + f(0.0, -1.0) - 2.0 * f(0.0, 0.0)
    h12 = f(1.0, 1.0) - f(1.0, 0.0) - f(0.0, 1.0) + f(0.0, 0.0)
    H = np.array([[h11, h12], [h12, h22]])
    rhs = -np.array([g1, g2])
    sol = np.linalg.solve(H, rhs)
    return float(sol[0]), float(sol[1])


def grid_min_theta(v, lo=-5.0, hi=5.0, step=1e-3):
    """Brute-force minimum of the tracy form over a theta grid."""
    thetas = np.arange(lo, hi + step / 2.0, step)
    vals = (
        v["v200"]
        + thetas**2 * v["v020"]
        + v["v002"]
        - 2.0 * thetas * v["v110"]
        + 2.0 * v["v101"]
        - 2.0 * thetas * v["v011"]
    )
    k = int(np.argmin(vals))
    return float(thetas[k]), float(vals[k])


def grid_min_alphas(v, vd, lo=-10.0, hi=10.0, step=0.01):
    """Brute-force minimum of the dual-family form over an alpha grid."""
    a = np.arange(lo, hi + step / 2.0, step)
    A1 = a[:, None]
    A2 = a[None, :]
    vals = (
        v["v200"]
        + A1**2 * vd["v020"]
        + A2**2 * vd["v002"]
        + 2.0 * A1 * vd["v110"]
        - 2.0 * A2 * vd["v101"]
        - 2.0 * A1 * A2 * vd["v011"]
    )
    k = int(np.argmin(vals))
    i, j = divmod(k, vals.shape[1])
    return float(a[i]), float(a[j]), float(vals[i, j])


def naive_neyman_raw(pairs, n_total):
    """Unrounded Neyman shares n_total * N_h s_h / sum(N s)."""
    total = sum(N * s for N, s in pairs)
    return [n_total * N * s / total for N, s in pairs]


def naive_largest_remainder(pairs, n_total):
    """Largest-remainder rounding with floors at 1 and caps at N_h."""
    raw = naive_neyman_raw(pairs, n_total)
    alloc = [min(max(math.floor(r), 1), N) for r, (N, _) in zip(raw, pairs)]
    order = sorted(range(len(raw)), key=lambda i: raw[i] - math.floor(raw[i]),
                   reverse=True)
    k = 0
    while sum(alloc) < n_total:
        i = order[k % len(order)]
        if alloc[i] < pairs[i][0]:
            alloc[i] += 1
        k += 1
    order_up = sorted(range(len(raw)), key=lambda i: raw[i] - math.floor(raw[i]))
    k = 0
    while sum(alloc) > n_total:
        i = order_up[k % len(order_up)]
        if alloc[i] > 1:
            alloc[i] -= 1
        k += 1
    return alloc


def naive_estimate(kind, pop, ybar, xbar, zbar, A=None, alpha1=None, alpha2=None):
    """Point estimate recomputed from per-stratum sample means by loops."""
    w = [st.N / pop.N for st in pop.strata]
    yst = sum(wi * v for wi, v in zip(w, ybar))
    xst = sum(wi * v for wi, v in zip(w, xbar))
    zst = sum(wi * v for wi, v in zip(w, zbar))
    X, Z = pop.mean_x, pop.mean_z
    if kind == "classical":
        return yst
    if kind == "combined_ratio":
        return yst * X / xst
    if kind == "combined_product":
        return yst * zst / Z
    if kind == "ratio_cum_product":
        return yst * (X / xst) * (zst / Z)
    if kind == "transformed_product":
        return yst * (A - xst) / (A - X)
    if kind == "tracy_product":
        return yst * ((A - xst) / (A - X)) * (zst / Z)
    if kind == "plikusas_dual":
        alpha1 = alpha2 = 1.0
        kind = "dual_family"
    if kind == "dual_family":
        xstar = sum(
            wi * ((1.0 + st.n / (st.N - st.n)) * st.mean_x
                  - st.n / (st.N - st.n) * xb)
            for wi, st, xb in zip(w, pop.strata, xbar)
        )
        zstar = sum(
            wi * ((1.0 + st.n / (st.N - st.n)) * st.mean_z
                  - st.n / (st.N - st.n) * zb)
            for wi, st, zb in zip(w, pop.strata, zbar)
        )
        # A zeroth power is 1 even where zstar = 0 makes the base infinite.
        z_factor = (Z / zstar) ** alpha2 if alpha2 != 0 else 1.0
        return yst * (xstar / X) ** alpha1 * z_factor
    raise ValueError(f"unknown kind {kind!r}")


def enumerate_srswor(frame, n):
    """All C(N, n) equally likely samples of a frame, as index tuples."""
    return list(itertools.combinations(range(len(frame.y)), n))


def enumeration_mean_var(values, n):
    """Exact mean and variance of a sample mean under SRSWOR enumeration."""
    means = [
        sum(values[i] for i in idx) / n
        for idx in itertools.combinations(range(len(values)), n)
    ]
    mu = sum(means) / len(means)
    var = sum((m - mu) ** 2 for m in means) / len(means)
    return mu, var


def make_random_population(rng, max_strata=5, allow_census=False):
    """A random internally consistent population built from unit data.

    Frames are drawn from correlated Gaussians with means well away
    from zero, then summarized, so every StratumSummary satisfies the
    Cauchy-Schwarz constraints by construction.  Returns (frames,
    designs) ready for ``summarize_stratum``/``combine``.
    """
    from stratdual import UnitFrame

    L = int(rng.integers(1, max_strata + 1))
    frames = []
    designs = []
    for h in range(L):
        N = int(rng.integers(4, 41))
        if allow_census:
            n = int(rng.integers(1, N + 1))
        else:
            n = int(rng.integers(1, N))
        while True:
            mu = rng.uniform(80.0, 300.0, size=3)
            sd = rng.uniform(0.02, 0.18, size=3) * mu
            r_xy, r_yz, r_xz = rng.uniform(-0.6, 0.9, size=3)
            R = np.array([
                [1.0, r_xy, r_yz],
                [r_xy, 1.0, r_xz],
                [r_yz, r_xz, 1.0],
            ])
            vals, vecs = np.linalg.eigh(R)
            if vals.min() <= 1e-6:
                continue
            Lf = vecs @ np.diag(np.sqrt(vals))
            data = mu + (rng.standard_normal((N, 3)) @ Lf.T) * sd
            if (data.mean(axis=0).min() > 1.0
                    and data.std(axis=0, ddof=1).min() > 1e-9):
                break
        frames.append(UnitFrame(
            stratum_id=f"s{h}",
            y=tuple(float(v) for v in data[:, 0]),
            x=tuple(float(v) for v in data[:, 1]),
            z=tuple(float(v) for v in data[:, 2]),
        ))
        designs.append(n)
    return frames, designs
