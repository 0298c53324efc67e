"""Derive a single aircraft topology and walk through what came out.

Runs the shipped demo grammar on a small grid, prints the first few
derivation steps, the per-layer cell map, the component graph, and the
validation verdict against the shipped profile.

    python3 demos/build_one_aircraft.py --seed 7 --n-half 1
"""

from __future__ import annotations

import argparse

from gridgram.core import GridConfig
from gridgram.generator import GenerationConfig, generate, validate_design
from gridgram.grammar import parse_grammar
from gridgram.rulesets import demo_profile_obj, demo_uav_text


def show_layers(design, cfg: GridConfig) -> None:
    """One character per point: F/R/W/C fuselage/rotor/wing/connector, E empty."""
    text = design.cells_text()
    side = cfg.side
    for zi in range(side):
        print(f"  z = {zi - cfg.n_half}:")
        for xi in range(side):
            row = "".join(
                text[(xi * side + yi) * side + zi] for yi in range(side)
            )
            print(f"    {row}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--n-half", type=int, default=1)
    args = ap.parse_args()

    grammar = parse_grammar(demo_uav_text())
    cfg = GridConfig(args.n_half)
    design, log = generate(grammar, cfg, GenerationConfig(seed=args.seed))

    print(f"derivation: seed={args.seed}, {cfg.point_count} grid points, "
          f"{len(log.steps)} steps, outcome={log.outcome}")
    print("\nfirst steps:")
    for step in log.steps[:6]:
        print(f"  {step.index:3d}  {step.rule_name:22s} at {step.point}")
    if len(log.steps) > 6:
        print(f"  ... {len(log.steps) - 6} more")

    print("\ncell map (x rows, y columns, one block per z layer):")
    show_layers(design, cfg)

    nodes = design.component_points()
    edges = design.edges()
    print(f"\ncomponent graph: {len(nodes)} nodes, {len(edges)} edges")
    counts = {s.label: n for s, n in design.counts().items() if n}
    print(f"symbol counts: {counts}")

    report = validate_design(design, demo_profile_obj())
    print(f"\nvalidation against the shipped profile: "
          f"{'passed' if report.passed else 'FAILED'}")
    for check in report.checks:
        print(f"  {check.check:16s} {'ok' if check.passed else 'FAILED':8s} {check.detail}")
    print(f"\ndesign hash: {design.hash}")


if __name__ == "__main__":
    main()
