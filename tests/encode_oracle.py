"""Reference encoding: designs and logs as plain data, then canonical JSON.

The package writes both artifacts from cached text fragments; tests hold
those bytes to this object-based encoding. It builds one object per node,
edge and step from the public fields of a ``Design`` and a
``DerivationLog``, never from the package's own renderers, and walks them
all for floats, so it stays out of the package.
"""

from __future__ import annotations

from gridgram.canon import canonical_hash, canonical_json
from gridgram.generator import DESIGN_FORMAT, LOG_FORMAT, DerivationLog, Design


def design_obj(design: Design) -> dict:
    cfg = design.config
    return {
        "format": DESIGN_FORMAT,
        "grid_config": {"n_half": cfg.n_half, "unit": cfg.unit},
        "cells": design.cells_text(),
        "components": {
            "nodes": [[*p, s.label] for p, s in design.component_points()],
            "edges": [[list(a), list(b)] for a, b in design.edges()],
        },
        "counts": {s.label: n for s, n in design.counts().items()},
    }


def design_text(design: Design) -> str:
    return canonical_json(design_obj(design))


def design_hash(design: Design) -> str:
    return canonical_hash(design_obj(design))


def log_obj(log: DerivationLog) -> dict:
    """Plain data of everything except log_hash, which hashes this object."""
    grid, gen = log.grid_config, log.gen_config
    return {
        "format": LOG_FORMAT,
        "grammar_fingerprint": log.grammar_fingerprint,
        "grid_config": {"n_half": grid.n_half, "unit": grid.unit},
        "generation_config": {
            "seed": gen.seed,
            "point_strategy": gen.point_strategy,
            "rule_strategy": gen.rule_strategy,
            "max_steps": gen.max_steps,
        },
        "steps": [
            {
                "index": s.index,
                "point": list(s.point),
                "rule": s.rule_name,
                "pre_state": [sym.label for sym in s.pre_state.symbols],
            }
            for s in log.steps
        ],
        "outcome": log.outcome,
        "design_hash": log.design_hash,
    }


def log_hash(log: DerivationLog) -> str:
    """What the log's log_hash should be: the hash of everything else."""
    return canonical_hash(log_obj(log))


def log_text(log: DerivationLog) -> str:
    """The log's text, with its recorded log_hash."""
    return canonical_json({**log_obj(log), "log_hash": log.log_hash})
