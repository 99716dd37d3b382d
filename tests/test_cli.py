"""Tests for the ``python -m repro`` command line (subcommand parsing,
exit codes, payload shapes) — all in-process via ``main(argv)``.

The ``serve`` happy path monkeypatches ``repro.gateway.serve_http``
(``_run_serve`` resolves it at call time) so the boot path — dataset
registration, ``--store`` opening, boot-time recovery — runs for real
without binding a socket or blocking on signals.
"""

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.spec import AuditSpec, RegionSpec
from repro.ticketstore import TicketStore

from tests.conftest import N_WORLDS


@pytest.fixture()
def spec_file(tmp_path):
    spec = AuditSpec(
        regions=RegionSpec.grid(3, 3), n_worlds=N_WORLDS, seed=4
    )
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json())
    return path


@pytest.fixture()
def npz_file(tmp_path, unit_coords, biased_labels):
    path = tmp_path / "city.npz"
    np.savez(path, coords=unit_coords, outcomes=biased_labels)
    return path


def _out_json(capsys):
    return json.loads(capsys.readouterr().out)


# -- parsing and trivial subcommands ---------------------------------


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_validate_prints_canonical_spec(spec_file, capsys):
    assert main(["validate", str(spec_file)]) == 0
    payload = _out_json(capsys)
    assert payload["n_worlds"] == N_WORLDS


def test_validate_rejects_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 2
    assert "invalid spec" in capsys.readouterr().err


def test_missing_spec_file_is_exit_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2


# -- run -------------------------------------------------------------


def test_run_happy_path(spec_file, npz_file, capsys):
    assert main(["run", str(spec_file), "--data", str(npz_file)]) == 0
    payload = _out_json(capsys)
    assert 0.0 <= payload["p_value"] <= 1.0
    assert "findings" not in payload  # full form needs --full


def test_run_full_includes_findings(spec_file, npz_file, capsys):
    rc = main(
        ["run", str(spec_file), "--data", str(npz_file), "--full"]
    )
    assert rc == 0
    assert "findings" in _out_json(capsys)


def test_run_budget_override(spec_file, npz_file, capsys):
    rc = main(
        [
            "run", str(spec_file),
            "--data", str(npz_file),
            "--budget", "adaptive",
        ]
    )
    assert rc == 0
    assert _out_json(capsys)["spec"]["budget"]["kind"] == "adaptive"


def test_run_missing_data_file_is_audit_failure(spec_file, tmp_path):
    # np.load raises OSError -> "audit failed" -> exit 1
    rc = main(
        ["run", str(spec_file), "--data", str(tmp_path / "no.npz")]
    )
    assert rc == 1


def test_run_npz_without_outcomes_exits_with_message(
    spec_file, tmp_path, unit_coords
):
    path = tmp_path / "bare.npz"
    np.savez(path, coords=unit_coords)
    with pytest.raises(SystemExit, match="no outcomes array"):
        main(["run", str(spec_file), "--data", str(path)])


def test_run_npz_without_coords_exits_with_message(
    spec_file, tmp_path, biased_labels
):
    path = tmp_path / "bare.npz"
    np.savez(path, outcomes=biased_labels)
    with pytest.raises(SystemExit, match="no 'coords'"):
        main(["run", str(spec_file), "--data", str(path)])


def test_run_accepts_outcome_aliases(
    spec_file, tmp_path, unit_coords, biased_labels, capsys
):
    path = tmp_path / "alias.npz"
    np.savez(path, coords=unit_coords, y_pred=biased_labels)
    assert main(["run", str(spec_file), "--data", str(path)]) == 0


# -- batch -----------------------------------------------------------


def test_batch_happy_path(spec_file, npz_file, tmp_path, capsys):
    other = AuditSpec(
        regions=RegionSpec.grid(4, 4), n_worlds=N_WORLDS, seed=9
    )
    other_file = tmp_path / "other.json"
    other_file.write_text(other.to_json())
    rc = main(
        [
            "batch", str(spec_file), str(other_file),
            "--data", str(npz_file),
        ]
    )
    assert rc == 0
    payload = _out_json(capsys)
    assert len(payload["reports"]) == 2
    assert payload["service"]["completed"] >= 2


def test_batch_bad_spec_is_exit_2(npz_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    rc = main(["batch", str(bad), "--data", str(npz_file)])
    assert rc == 2


# -- stream ----------------------------------------------------------


def test_stream_happy_path(
    spec_file, npz_file, tmp_path, unit_coords, biased_labels, capsys
):
    update = tmp_path / "update.npz"
    np.savez(
        update,
        coords=unit_coords[:50],
        outcomes=biased_labels[:50],
    )
    rc = main(
        [
            "stream", str(spec_file),
            "--data", str(npz_file),
            "--update", str(update),
        ]
    )
    assert rc == 0
    payload = _out_json(capsys)
    assert [s["step"] for s in payload["steps"]] == [0, 1]
    assert payload["steps"][1]["update"] == str(update)


def test_stream_bad_spec_is_exit_2(npz_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["stream", str(bad), "--data", str(npz_file)]) == 2


# -- serve -----------------------------------------------------------


def test_serve_invalid_queue_size_is_exit_2(capsys):
    assert main(["serve", "--queue-size", "0"]) == 2
    assert "invalid gateway options" in capsys.readouterr().err


def test_serve_malformed_data_entry_is_exit_2(capsys):
    assert main(["serve", "--data", "no-equals-sign"]) == 2
    assert "expected NAME=file.npz" in capsys.readouterr().err


def test_serve_unreadable_data_file_is_exit_2(tmp_path, capsys):
    rc = main(["serve", "--data", f"city={tmp_path / 'no.npz'}"])
    assert rc == 2
    assert "cannot load" in capsys.readouterr().err


def test_serve_bad_store_path_is_exit_2(tmp_path, capsys):
    rc = main(
        ["serve", "--store", str(tmp_path / "missing" / "j.sqlite")]
    )
    assert rc == 2
    assert "cannot open ticket store" in capsys.readouterr().err


def test_serve_happy_path_boots_and_announces(
    npz_file, monkeypatch, capsys
):
    import repro.gateway as gateway_mod

    seen = {}

    def fake_serve_http(gateway, **kwargs):
        seen["gateway"] = gateway
        seen["kwargs"] = kwargs

    monkeypatch.setattr(gateway_mod, "serve_http", fake_serve_http)
    rc = main(
        [
            "serve",
            "--data", f"city={npz_file}",
            "--queue-size", "8",
        ]
    )
    assert rc == 0
    assert seen["gateway"].queue_size == 8
    assert seen["gateway"].registry.names() == ["city"]
    err = capsys.readouterr().err
    assert "registered dataset 'city'" in err
    assert "drained; bye" in err


def test_serve_with_store_recovers_on_boot(
    npz_file, tmp_path, monkeypatch, capsys,
    unit_coords, biased_labels,
):
    """`--store` journals, and boot replays unsettled tickets."""
    import repro.gateway as gateway_mod
    from repro.fingerprint import dataset_fingerprint

    store_path = tmp_path / "tickets.sqlite"
    spec = AuditSpec(
        regions=RegionSpec.grid(3, 3), n_worlds=N_WORLDS, seed=4
    )
    fingerprint = dataset_fingerprint(unit_coords, biased_labels)
    with TicketStore(store_path) as store:
        tid = store.record_submit(
            "city", "acme", spec.to_json(), fingerprint
        )

    monkeypatch.setattr(
        gateway_mod, "serve_http", lambda gateway, **kw: None
    )
    rc = main(
        [
            "serve",
            "--data", f"city={npz_file}",
            "--store", str(store_path),
        ]
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert "1 unsettled ticket(s) replayed" in err
    assert "1 recovered" in err
    with TicketStore(store_path) as store:
        record = store.get(tid)
        assert record.state == "done"
        assert record.recovered


def test_serve_bind_failure_is_exit_1(npz_file, monkeypatch, capsys):
    import repro.gateway as gateway_mod

    def boom(gateway, **kwargs):
        raise OSError("address in use")

    monkeypatch.setattr(gateway_mod, "serve_http", boom)
    rc = main(["serve", "--data", f"city={npz_file}"])
    assert rc == 1
    assert "cannot bind" in capsys.readouterr().err
