"""Regenerate ``reference.json``, the pinned values of the cli_session checks.

The values come from the independent oracles of ``tests/oracles.py``
(the ones ACCEPTANCE 1 ties the library to at 1e-9) evaluated on the
bundled corrected table.  The benchmark itself never imports the tests;
run this from the repository root only when the oracles change:

    PYTHONPATH=src:tests python3 benchmarks/make_reference.py
"""

from __future__ import annotations

import json
from pathlib import Path

from oracles import (
    naive_bias_dual,
    naive_dual_moments,
    naive_moments,
    naive_quadratic_form,
    parabola_vertex_theta,
    stationary_alphas,
)
from stratdual.datasets import demo_population


def main() -> None:
    pop = demo_population(corrected=True)
    v, vd = naive_moments(pop), naive_dual_moments(pop)
    ybar2 = pop.mean_y**2
    var = ybar2 * v["v200"]
    theta = parabola_vertex_theta(v)
    a1, a2 = stationary_alphas(v, vd)

    def mse(kind, **params):
        return ybar2 * naive_quadratic_form(kind, v, vd, **params)

    # The default estimator list of the `mse` command, in its order.
    mse_rows = [
        ("classical", mse("classical")),
        ("combined_ratio", mse("combined_ratio")),
        ("combined_product", mse("combined_product")),
        ("ratio_cum_product", mse("ratio_cum_product")),
        ("tracy_product", mse("tracy_product", theta=theta)),
        ("plikusas_dual", mse("plikusas_dual")),
        ("dual_family", mse("dual_family", alpha1=a1, alpha2=a2)),
    ]
    doc = {
        "source": "tests/oracles.py on src/stratdual/data/table1_corrected.csv",
        "means": {"mean_y": pop.mean_y, "mean_x": pop.mean_x,
                  "mean_z": pop.mean_z},
        "moments": v,
        "dual_moments": vd,
        "mse": [{"estimator": k, "mse": m, "pre": 100.0 * var / m}
                for k, m in mse_rows],
        "pre": [
            {"estimator": "classical", "alpha1": 0, "alpha2": 0, "pre": 100.0},
            {"estimator": "combined_ratio", "alpha1": 1, "alpha2": 0,
             "pre": 100.0 * var / mse("combined_ratio")},
            {"estimator": "ratio_cum_product", "alpha1": 1, "alpha2": 1,
             "pre": 100.0 * var / mse("ratio_cum_product")},
            {"estimator": "plikusas_dual", "alpha1": 1, "alpha2": 1,
             "pre": 100.0 * var / mse("plikusas_dual")},
            {"estimator": "dual_family:opt", "alpha1": a1, "alpha2": a2,
             "pre": 100.0 * var / mse("dual_family", alpha1=a1, alpha2=a2)},
        ],
        "optimize": {
            "var_classical": var,
            "theta_opt": theta,
            "A_opt": pop.mean_x * (1.0 + theta) / theta,
            "mse_tracy_product_min": mse("tracy_product", theta=theta),
            "pre_tracy_product_opt": 100.0 * var / mse("tracy_product",
                                                       theta=theta),
            "alpha1_opt": a1,
            "alpha2_opt": a2,
            "mse_dual_family_min": mse("dual_family", alpha1=a1, alpha2=a2),
            "pre_dual_family_opt": 100.0 * var / mse("dual_family",
                                                     alpha1=a1, alpha2=a2),
            "bias_dual_family_opt": naive_bias_dual(vd, pop.mean_y, a1, a2),
        },
        # The printed table's impossible s_xz in stratum 3 and its repair.
        "validate_required": [["error", "3", "impossible_covariance"],
                              ["warning", "3", "decimal_shift"]],
    }
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
