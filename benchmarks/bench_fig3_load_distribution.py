"""Fig. 3 — "Different test cases of a decomposed 30 and 100 dimensional
Rosenbrock function with 3 and 7 worker problems under different load
situations."

Regenerates the figure's four curves: runtime vs. number of hosts with
background load for {CORBA (unmodified naming), CORBA/Winner} × {30-dim/3
workers, 100-dim/7 workers}.  Expected shape (per the paper): the curves
coincide at 0 loaded hosts; CORBA/Winner stays flat while free hosts
remain (≈40 % best-case reduction) and is never slower; the advantage
diminishes as background load covers the cluster.
"""

from repro.bench import fig3_curves, fig3_sweep, format_table


def test_fig3_load_distribution(benchmark, save_result):
    points = benchmark.pedantic(fig3_sweep, rounds=1, iterations=1)
    curves = fig3_curves(points)

    bg_values = sorted({p.background_hosts for p in points})
    headers = ["curve"] + [f"bg={bg}" for bg in bg_values]
    rows = []
    for (strategy, config), curve in sorted(curves.items()):
        rows.append(
            [f"{strategy} {config}"] + [f"{p.runtime:.2f}" for p in curve]
        )
    text = format_table(
        headers,
        rows,
        title="Fig. 3: runtime [simulated s] vs #hosts with background load",
    )
    from repro.bench.plotting import ascii_plot

    text += "\n\n" + ascii_plot(
        {
            f"{strategy} {config}": [
                (p.background_hosts, p.runtime) for p in curve
            ]
            for (strategy, config), curve in curves.items()
        },
        x_label="number of hosts with background load",
        y_label="runtime [simulated s]",
    )

    # Paper-shape assertions (who wins, by roughly what factor, where).
    for config in ("30/3", "100/7"):
        baseline = {p.background_hosts: p.runtime for p in curves[("CORBA", config)]}
        winner = {
            p.background_hosts: p.runtime for p in curves[("CORBA/Winner", config)]
        }
        assert winner[0] == pytest_approx(baseline[0], 0.1)
        for bg in bg_values:
            assert winner[bg] <= baseline[bg] * 1.05, (config, bg)
    baseline30 = {p.background_hosts: p.runtime for p in curves[("CORBA", "30/3")]}
    winner30 = {
        p.background_hosts: p.runtime for p in curves[("CORBA/Winner", "30/3")]
    }
    best_reduction = max(
        1 - winner30[bg] / baseline30[bg] for bg in bg_values if baseline30[bg]
    )
    assert 0.30 <= best_reduction <= 0.60  # "ca. 40% in the best case"
    # 30/3: flat while 6-host pool has free machines for 3 workers.
    assert winner30[2] == pytest_approx(winner30[0], 0.1)

    save_result(
        "fig3_load_distribution",
        text,
        {
            "points": [p.__dict__ for p in points],
            "best_case_reduction_30_3": best_reduction,
        },
    )


def pytest_approx(value, rel):
    import pytest

    return pytest.approx(value, rel=rel)
