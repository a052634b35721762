"""Seeded faults, and the check that must catch each.

A row names one ``ppasim`` function, a snippet of its source, the fault
that replaces it, and a check: a verify line, an acceptance criterion or a
pin of this suite.  The faulty function is compiled from the edited source in
its module's namespace and patched in every module that binds the original;
the check then runs and must fail.  A row marked
``expected-uncaught`` is a fault that no check catches yet: it asserts that
the check still passes, so a check that learns to catch it fails the row.
Faults that make a forked worker raise or die stay in the subprocess
tests of tests/test_cli.py.
"""

import __future__

import functools
import inspect
import sys
import textwrap

import pytest

from ppasim import bench, cli, fisher, quasiprob, states, verify

import test_acceptance
import test_bench
import test_cli
import test_fisher
import test_quasiprob


def verify_line(name, argv=("--n", "200")):
    """The check that ``ppasim verify`` prints the ``[name]`` line as a PASS."""
    def check(capsys):
        cli.main(["verify", *argv])
        lines = capsys.readouterr().out.splitlines()
        [line] = [x for x in lines if x.startswith(f"[{name}] ")]
        assert line.endswith(" PASS"), line
    return check


# (id, function, snippet, fault, check, outcome)
FAULTS = [
    ("population-one-minus-cos", fisher._population,
     "np.square(np.sin(theta / 2.0))", "(1.0 - np.cos(theta)) / 2.0",
     functools.partial(test_fisher.test_population_keeps_its_digits_at_small_theta, 1.0),
     "caught"),
    ("gap-max-only", quasiprob.nonclassicality_gap,
     "sq.max(axis=axes) - sq.min(axis=axes)", "sq.max(axis=axes)",
     verify_line("gap-equality"), "caught"),
    ("verify-default-999", verify.check_run,
     "n = 1000 if", "n = 999 if",
     functools.partial(test_cli.test_verify_default_is_n_1000, seed="3"), "caught"),
    ("qfi-family-1pc-high", fisher.qfi_ppa_family,
     "return _family_qfi(", "return 1.01 * _family_qfi(",
     test_acceptance.test_criterion_2_fisher_route_consistency, "caught"),
    ("mm-drops-rank-1-term", states._mm,
     "for j in range(1, k):", "for j in range(1, k - 1):",
     verify_line("gap-equality"), "caught"),
    ("fold-ignores-nan", verify._fold,
     "[np.max(r) for r in residuals]",
     "[np.max(r, initial=0.0, where=~np.isnan(r)) for r in residuals]",
     functools.partial(test_cli.test_verify_fails_a_suite_with_a_nan_residual,
                       index=0, target="verify_gap_equality"), "caught"),
    ("stream-keyed-by-block-position", bench._point_streams,
     "for i, j in points:", "for i, j in ((0, k) for k in range(len(points))):",
     test_cli.test_sweep_default_grid_at_seed_0_is_pinned, "caught"),
    ("zero-variance-flag-dropped", bench.run_trials,
     "(spec.n_trials - n_hit), zero_spread]", "(spec.n_trials - n_hit), zero_spread & False]",
     test_cli.test_sweep_zero_variance_rows_write_no_precision, "caught"),
    ("family-gap-one-minus-v-squared", quasiprob._family_gap4,
     "(1.0 - v) * (1.0 + v)", "(1.0 - v * v)",
     test_quasiprob.test_family_gap_keeps_its_digits_where_one_minus_v_squared_cancels,
     "caught"),
    ("inversion-minimum-not-strict", bench._invert_frequency,
     "closer = cand_gap < gap", "closer = cand_gap <= gap",
     test_bench.test_in_place_inversion_keeps_the_references_ties_and_edges, "caught"),
    ("survival-floor-at-zero-probability", cli._check,
     "w) > 1e-14)", "w) > 1e-15)",
     test_cli.test_kd_survival_floor_and_tables_share_one_population, "caught"),
    ("kd-table-lower-left-not-conjugated", quasiprob.kd_table_closed_form,
     "table[..., 1, 0], table[..., 1, 1] = off.conj(), lower",
     "table[..., 1, 0], table[..., 1, 1] = off, lower",
     test_cli.test_kd_matches_the_matrix_reference, "caught"),
    ("sylvester-random-residuals-zeroed", verify.sylvester_suite,
     "yield sld(rho, drho).residual", "yield 0.0 * sld(rho, drho).residual",
     test_fisher.test_sylvester_suite_fails_on_one_random_residual_above_threshold,
     "caught"),
    ("cfi-suite-axis-check-zeroed", verify.cfi_qfi_suite,
     "yield axis_angle(", "yield 0.0 * axis_angle(",
     test_fisher.test_cfi_suite_fails_on_a_wrong_sld_axis, "caught"),
    # verify's two processes: the worker's lines before the caller's, and the
    # worker's last suite dropped
    ("verify-worker-lines-first", cli._fork_chunks,
     'lines += data.decode().split("\\n")', 'lines[:0] = data.decode().split("\\n")',
     functools.partial(test_cli.test_verify_on_two_processes_prints_the_serial_bytes,
                       seed=0, n=5), "caught"),
    ("verify-worker-drops-a-suite", cli.cmd_verify,
     "[rest]", "[rest[:-1]]",
     functools.partial(test_cli.test_verify_on_two_processes_prints_the_serial_bytes,
                       seed=0, n=5), "caught"),
    # the one fork gate of the sweep and verify: a fork beside a live thread,
    # on one CPU, or for one job, which reads the CPUs
    ("verify-forks-beside-a-thread", cli._fork_width,
     "threading.active_count() > 1", "threading.active_count() > 2",
     test_cli.test_verify_beside_a_python_thread_runs_every_suite_here, "caught"),
    ("sweep-forks-beside-a-thread", cli._fork_width,
     "threading.active_count() > 1", "threading.active_count() > 2",
     test_cli.test_sweep_beside_a_python_thread_forks_nothing_and_keeps_its_bytes,
     "caught"),
    ("fork-gate-ignores-the-cpus", cli._fork_width,
     "min(jobs, len(os.sched_getaffinity(0)))", "jobs",
     test_cli.test_sweep_on_one_cpu_forks_nothing_and_writes_the_one_worker_bytes,
     "caught"),
    ("one-job-reads-the-cpus", cli._fork_width,
     "if jobs < 2 or", "if jobs < 1 or",
     functools.partial(test_cli.test_one_job_runs_without_reading_the_cpus,
                       argv=["fig4"]), "caught"),
    # verify's input rule without its types: a float seed runs the suites
    ("check-run-skips-the-types", verify.check_run,
     "if not _is_kind(value, numbers.Integral):", "if False:",
     functools.partial(test_cli.test_library_verify_rejects_what_the_cli_rejects,
                       kwargs=dict(seed=1.5), message="seed: expected int, got 1.5"),
     "caught"),
]


def faulty(func, snippet, fault):
    """``func`` compiled afresh from its source, with ``snippet`` replaced by
    ``fault``, in its module's namespace, which it reads as ``func`` does."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(snippet) == 1, f"{func.__qualname__}: {snippet!r}"
    code = compile(source.replace(snippet, fault), inspect.getsourcefile(func), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = {}
    exec(code, func.__globals__, namespace)  # binds the function in namespace alone
    return namespace[func.__name__]


def clear_caches():
    """Empty every functools cache of ppasim, which a fault could fill."""
    for module in (bench, states, verify):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def run_check(check, tmp_path, capsys, monkeypatch):
    """Call ``check`` with the fixtures it names."""
    fixtures = {"tmp_path": tmp_path, "capsys": capsys, "monkeypatch": monkeypatch}
    wanted = inspect.signature(check).parameters
    check(**{k: v for k, v in fixtures.items() if k in wanted})


ROWS = pytest.mark.parametrize("func, snippet, fault, check, outcome",
                               [row[1:] for row in FAULTS], ids=[row[0] for row in FAULTS])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a fault may make nan
@ROWS
def test_the_named_check_catches_the_fault(func, snippet, fault, check, outcome,
                                           tmp_path, capsys, monkeypatch):
    patched = faulty(func, snippet, fault)
    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get(func.__name__) is func:
            monkeypatch.setattr(module, func.__name__, patched)
    clear_caches()
    try:
        if outcome == "caught":
            with pytest.raises(AssertionError):
                run_check(check, tmp_path, capsys, monkeypatch)
        else:
            assert outcome == "expected-uncaught"
            run_check(check, tmp_path, capsys, monkeypatch)
    finally:
        monkeypatch.undo()
        clear_caches()


@ROWS
def test_the_named_check_passes_without_the_fault(func, snippet, fault, check, outcome,
                                                  tmp_path, capsys, monkeypatch):
    # the control: the snippet is in the function once, and the check, so
    # called, fails only on the fault
    assert inspect.getsource(func).count(snippet) == 1
    run_check(check, tmp_path, capsys, monkeypatch)


def test_the_table_is_at_least_ten_distinct_faults():
    assert len({row[0] for row in FAULTS}) == len(FAULTS) >= 10
