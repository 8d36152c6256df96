"""Every config field has a reader and every reader a field, so a retired field
cannot leave a dead reader behind (as test_exports.py does for names)."""
import argparse
import json

import pytest

from stablepp import cli, sampler


class _Declared(Exception):
    """Raised by the recording `config_fields` once a command has declared its fields."""


def _table_fields(table: dict) -> set:
    """The fields a kind table adds for any of its kinds, the last two entries
    of each kind's row."""
    return {name for *_, required, optional in table.values()
            for name in (*required, *optional)}


def _command_fields(tmp_path, monkeypatch) -> set:
    """The fields each CLI command (each kind of `test`) passes to `_load_config`."""
    seen = set()

    def record(doc, what, required=(), optional=()):
        seen.update(required, optional)
        raise _Declared

    monkeypatch.setattr(cli, "config_fields", record)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": "stablepp/v1"}))
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for parser in sub.choices.values():
        kinds = next((a.choices for a in parser._actions if a.dest == "kind"), [None])
        for kind in kinds:
            with pytest.raises(_Declared):
                parser.get_default("func")(argparse.Namespace(config=str(path), kind=kind))
    return seen


def _declared_fields(tmp_path, monkeypatch) -> set:
    laws = {name for kinds in (sampler.LocationLaw.kinds,
                               *map(sampler._global_kinds, sampler.CARRIERS))
            for fields in kinds.values() for name in fields}
    return (
        _table_fields(sampler._FAMILIES) | {"family", "decoration", "window"}
        | _table_fields(sampler._DECORATIONS) | {"kind"}
        | {"atoms", "prob"}  # a table decoration's entry
        | laws
        | _table_fields(cli._FUNCTION_FIELDS) | {"id"}
        | _table_fields(cli._test_kinds())
        | _command_fields(tmp_path, monkeypatch)
    )


def test_every_reader_reads_a_declared_field(tmp_path, monkeypatch):
    declared = _declared_fields(tmp_path, monkeypatch)
    dead = sorted(set(sampler.READ) - declared)
    assert not dead, f"READ has readers no config object declares: {dead}"
    unread = sorted(declared - set(sampler.READ))
    assert not unread, f"config fields without a reader in READ: {unread}"


def test_every_battery_kind_has_a_constructor():
    made = {kind for makers in cli._FUNCTION_MAKERS.values() for kind in makers}
    assert made == set(cli._FUNCTION_FIELDS)
