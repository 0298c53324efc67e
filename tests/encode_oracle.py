"""Reference encoding: designs and logs as plain data, then canonical JSON.

The package writes both artifacts from cached text fragments; tests hold
those bytes to this object-based encoding. It builds one object per node,
edge and step and walks them all for floats, so it stays out of the package.
"""

from __future__ import annotations

from gridgram.canon import canonical_hash, canonical_json
from gridgram.generator import DESIGN_FORMAT, DerivationLog, Design


def design_obj(design: Design) -> dict:
    cfg = design.grid.config
    return {
        "format": DESIGN_FORMAT,
        "grid_config": {"n_half": cfg.n_half, "unit": cfg.unit},
        "cells": design.cells_text(),
        "components": {
            "nodes": [[*p, s.label] for p, s in design.component_nodes()],
            "edges": [[list(a), list(b)] for a, b in design.component_edges()],
        },
        "counts": {s.label: n for s, n in design.counts().items()},
    }


def design_text(design: Design) -> str:
    return canonical_json(design_obj(design))


def design_hash(design: Design) -> str:
    return canonical_hash(design_obj(design))


def log_hash(log: DerivationLog) -> str:
    """What the log's log_hash should be: the hash of everything else."""
    return canonical_hash(log.core_obj())


def log_text(log: DerivationLog) -> str:
    """The log's text, with its recorded log_hash."""
    obj = log.core_obj()
    obj["log_hash"] = log.log_hash
    return canonical_json(obj)
