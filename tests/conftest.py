"""The demo grammar, parsed once and written once for the whole suite."""

from __future__ import annotations

import pytest

from gridgram.grammar import Grammar, parse_grammar
from gridgram.rulesets import demo_uav_text


@pytest.fixture(scope="session")
def demo() -> Grammar:
    return parse_grammar(demo_uav_text())


@pytest.fixture(scope="session")
def demo_path(tmp_path_factory) -> str:
    p = tmp_path_factory.mktemp("grammar") / "demo_uav.json"
    p.write_text(demo_uav_text())
    return str(p)
