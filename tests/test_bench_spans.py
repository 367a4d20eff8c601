"""The benchmark's tracer wraps package functions by name; a rename in the
package must fail here rather than break `bench/run.py --trace 1`."""

from fractions import Fraction
from pathlib import Path

import riccikit.cli  # noqa: F401  (Tracer.install patches its json binding)
from riccikit import families

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls_on_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    from riccikit import checks, curvature

    originals = (curvature.curvature_report, checks.run_checks)
    g, rot = families.prism(3)
    tracer = spans.Tracer()
    try:
        tracer.install()
        curvature.curvature_report(g, rot=rot, mode="lly")
        checks.run_checks(g, rot=rot, seed=1)
        curvature.kappa_alpha(g, 0, 1, Fraction(1, 2))  # verify solves no optimal_transport
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals["curvature.report"][0] == 2  # once directly, once in run_checks
    assert totals["checks.run"][0] == 1
    assert totals["curvature.program"][0] > 0 and totals["transport.ot"][0] > 0
    assert (curvature.curvature_report, checks.run_checks) == originals
