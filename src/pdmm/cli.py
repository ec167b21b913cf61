"""Command-line front end: construct codes, check feasibility, simulate
protocol runs, and sweep parameter grids into CSV.

Subcommands:

* ``construct``: build one plan, print its degree table and verdicts.
* ``feasibility``: exact minimum privacy level (``min_feasible_t``'s
  search, ``--t-max`` caps it) vs the quadratic estimate, as CSV.
* ``simulate``: run the protocol end to end and report verdicts.
* ``sweep``: rate comparison grids (quantum family vs classical
  baseline) as CSV.  Each row's plan comes from the same ``_BUILDERS``
  entry ``construct`` uses, with the family's ``_SWEEP_AXES`` flag set
  to one value of ``--range``.  A plan that cannot run in quantum mode
  gets empty quantum rate and ratio cells.

All output is deterministic for a fixed ``--seed``; CSV has a header
row, LF line endings, exact integers, rationals as ``num/den`` next to
a 6-place decimal column.  A bad input or an unwritable output path is
reported as ``error: ...`` on stderr with exit code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys

from . import degree_tables as dt
from . import feasibility as fs
from .protocol import (
    NotFeasibleError,
    ProtocolConfig,
    rate_ratio,
    rate_report,
    run_protocol,
    transcript_dump,
)


def _add_family_arguments(parser: argparse.ArgumentParser, families, skip=""):
    """The family positional and its parameter flags; a skipped flag reads as unset."""
    parser.add_argument("family", choices=sorted(families))
    for flag in ("K", "L", "T", "r", "s", "n", "k", "m", "l", "x"):
        if flag in skip:
            parser.set_defaults(**{flag: None})
        elif flag == "l":
            parser.add_argument("-l", "--ell", dest="ell", type=int)
        else:
            parser.add_argument(f"-{flag}", type=int)


def _need(args, *names):
    """Values of the named flags; a missing one is a usage error (exit 2)."""
    missing = [n for n in names if getattr(args, n if n != "l" else "ell") is None]
    if missing:
        print(f"error: {args.family} requires {' '.join('-' + n for n in missing)}",
              file=sys.stderr)
        raise SystemExit(2)
    return [getattr(args, n if n != "l" else "ell") for n in names]


def _build_gasp(args):
    K, L, T = _need(args, "K", "L", "T")
    if args.r is not None:
        return dt.build_gasp_r(K, L, T, args.r)
    return dt.optimal_gasp_r(K, L, T)


_BUILDERS = {
    "gasp": _build_gasp,
    "gasp-rs": lambda a: dt.build_gasp_rs(*_need(a, "K", "L", "T", "r", "s")),
    "dog": lambda a: dt.build_dog(*_need(a, "K", "L", "T", "r", "s")),
    "cat": lambda a: dt.build_cat(*_need(a, "K", "L", "T"), x=a.x),
    "qf-square": lambda a: dt.build_qf_square(*_need(a, "n")),
    "qf-power": lambda a: dt.build_qf_power(*_need(a, "n", "k", "m")),
    "qf-additive": lambda a: dt.build_qf_additive(*_need(a, "n", "k", "r")),
    "qf-klt": lambda a: dt.build_qf_klt(*_need(a, "K", "T")),
    "qf-kt": lambda a: dt.build_qf_kt(*_need(a, "n", "k", "l")),
    "qf-kt-shift": lambda a: dt.build_qf_kt_shift(*_need(a, "n", "l", "r")),
    "low-privacy": lambda a: dt.build_low_privacy(*_need(a, "K", "L", "T")),
}


def _open_out(path, newline="\n", default=None):
    """``path`` opened for writing, or a context yielding ``default`` if there is none."""
    return (open(path, "w", encoding="utf-8", newline=newline) if path
            else contextlib.nullcontext(default))


def _cmd_construct(args) -> int:
    plan = _BUILDERS[args.family](args)
    table = plan.table
    with _open_out(args.export) as export:
        print(f"family: {plan.family}  params: "
              + (" ".join(f"{k}={v}" for k, v in plan.params) or "-"))
        print(f"K={plan.K} L={plan.L} T={plan.T}"
              + (f" q={plan.modulus_q}" if plan.modulus_q else ""))
        print("alpha:", " ".join(map(str, plan.alpha)))
        print("beta: ", " ".join(map(str, plan.beta)))
        width = len(str(table.sums.max()))
        print("degree table:")
        for row in table.sums.tolist():
            print("  " + " ".join(str(v).rjust(width) for v in row))
        print(f"servers: {table.n_servers}")
        print("info sums:   ", " ".join(map(str, sorted(table.info))))
        print("interference:", " ".join(map(str, sorted(table.interference))))
        decodable = dt.check_decodable(plan)
        print(f"decodable: {'yes' if decodable.ok else 'no (' + decodable.reason + ')'}")
        feas = fs.check_feasible(plan)
        print(f"quantum feasible: {'yes' if feas.feasible else 'no'} "
              f"(run {len(feas.run)}, need {feas.threshold})")
        if export:
            export.write(dt.plan_record(plan) + "\n")
            print(f"exported: {args.export}")
    return 0 if decodable.ok else 1


def _cmd_simulate(args) -> int:
    plan = _BUILDERS[args.family](args)
    try:
        dims = tuple(int(v) for v in args.dims.split(",")) if args.dims else None
    except ValueError:
        raise ValueError(
            f"--dims expects rows_A,inner,cols_B as integers, got {args.dims!r}") from None
    cfg = ProtocolConfig(plan=plan, dims=dims, mode=args.mode, seed=args.seed,
                         prime=args.prime)
    with _open_out(args.transcript) as transcript:
        t = run_protocol(cfg)
        print(f"family: {plan.family}  mode: {t.mode}  modulus: {t.modulus}  seed: {t.seed}")
        print(f"servers: {t.rate.n_servers}  instances: {t.rate.instances}")
        print(f"decode: {'ok' if t.decode_ok else 'FAIL'}")
        print(f"privacy audit: {'ok' if t.audit.ok else 'FAIL'} "
              f"(checked {t.audit.checked} subsets, "
              f"{'exhaustive' if t.audit.exhaustive else 'sampled'})")
        kl = t.rate.instances * plan.K * plan.L
        print(f"rate: {kl}/{t.rate.n_servers} = {float(t.rate.rate):.6f}")
        if transcript:
            transcript.write(transcript_dump(t))
            print(f"transcript: {args.transcript}")
    return 0 if (t.decode_ok and t.audit.ok) else 1


def _parse_range(text: str, flag: str) -> range:
    """Inclusive integer range from ``lo:hi``; anything else names the flag."""
    try:
        lo, hi = (int(v) for v in text.split(":"))
    except ValueError:
        raise ValueError(f"{flag} expects lo:hi with integer bounds, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"{flag} expects lo <= hi, got {text!r}")
    return range(lo, hi + 1)


def _cmd_feasibility(args) -> int:
    k_values = _parse_range(args.k_range, "--k-range")
    l_values = None if args.l_range is None else _parse_range(args.l_range, "--l-range")
    if l_values is not None and l_values[0] > k_values[-1]:
        raise ValueError(f"--l-range {args.l_range} has no L <= K "
                         f"for --k-range {args.k_range}")
    rows = fs.feasibility_rows(k_values, l_values, t_max=args.t_max)
    _write_csv(args, ["K", "L", "T_min_bruteforce", "T_hat", "delta"],
               [[row["K"], row["L"], row["T_min_bruteforce"],
                 f"{row['T_hat']:.6f}", row["delta"]] for row in rows])
    return 0


def _write_csv(args, header, rows) -> None:
    """Header and rows as CSV, to the ``--out`` path if given, else stdout."""
    with _open_out(args.out, newline="", default=sys.stdout) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# family -> the flag its sweep sets to each value of --range
_SWEEP_AXES = {"qf-square": "n", "qf-power": "n", "qf-additive": "r", "qf-klt": "K",
               "qf-kt": "k", "qf-kt-shift": "r", "low-privacy": "L", "cat": "K"}


def _classical_baseline(plan) -> "dt.ExponentPlan":
    if plan.family in ("lp_equal", "lp_general", "cat_x"):
        return dt.best_classical_plan(plan.K, plan.L, plan.T)
    return dt.optimal_gasp_r(plan.K, plan.L, plan.T)


def _cmd_sweep(args) -> int:
    axis = _SWEEP_AXES[args.family]
    # low-privacy's K follows the swept L unless -K is given
    k_follows = args.family == "low-privacy" and not args.K
    rows = []
    for value in _parse_range(args.range, "--range"):
        setattr(args, axis, value)
        if k_follows:
            args.K = value
        plan = _BUILDERS[args.family](args)
        classical = rate_report(_classical_baseline(plan), "classical")
        try:
            quantum = rate_report(plan, "quantum")
        except NotFeasibleError:
            quantum_cells = ["", "", "", ""]
        else:
            ratio = rate_ratio(quantum, classical)
            quantum_cells = [
                f"{2 * plan.K * plan.L}/{quantum.n_servers}", f"{float(quantum.rate):.6f}",
                f"{ratio.numerator}/{ratio.denominator}", f"{float(ratio):.6f}"]
        rows.append([
            plan.family, plan.K, plan.L, plan.T,
            classical.n_servers, plan.table.n_servers,
            f"{plan.K * plan.L}/{classical.n_servers}", f"{float(classical.rate):.6f}",
            *quantum_cells,
        ])
    rows.sort(key=lambda row: (row[1], row[2], row[3]))
    _write_csv(args, ["family", "K", "L", "T", "N_classical", "N_quantum",
                      "R_C", "R_C_decimal", "R_Q", "R_Q_decimal",
                      "ratio", "ratio_decimal"], rows)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pdmm",
        description="Private distributed matrix multiplication code toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="build a plan and print its degree table")
    _add_family_arguments(p_con, _BUILDERS)
    p_con.add_argument("--export", help="write the plan record to this path")
    p_con.set_defaults(func=_cmd_construct)

    p_sim = sub.add_parser("simulate", help="run the protocol end to end")
    _add_family_arguments(p_sim, _BUILDERS)
    p_sim.add_argument("--mode", choices=["classical", "quantum"], default="classical")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--prime", type=int)
    p_sim.add_argument("--dims", help="rows_A,inner,cols_B (default 1x1 blocks)")
    p_sim.add_argument("--transcript", help="write the transcript dump to this path")
    p_sim.set_defaults(func=_cmd_simulate)

    p_fea = sub.add_parser("feasibility",
                           help="minimum privacy level: brute force vs estimate (CSV)")
    p_fea.add_argument("--k-range", default="2:6")
    p_fea.add_argument("--l-range", help="optional L range; default L = K")
    p_fea.add_argument("--t-max", type=int, default=64)
    p_fea.add_argument("--out")
    p_fea.set_defaults(func=_cmd_feasibility)

    p_swp = sub.add_parser("sweep", help="rate-ratio grid (CSV)")
    p_swp.add_argument("--range", required=True, help="swept value, as lo:hi")
    _add_family_arguments(p_swp, _SWEEP_AXES, skip="rsx")
    p_swp.add_argument("--out")
    p_swp.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
