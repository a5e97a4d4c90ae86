import json
import os
import queue
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from knotgate.cli import main
from knotgate.model import Iri, Triple, make_iri, parse_triples

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"


def write_config(tmp_path: Path, port: int = 0, extra: str = "") -> Path:
    cfg = tmp_path / "gateway.toml"
    cfg.write_text(
        "[http]\n"
        "enabled = true\n"
        'host = "127.0.0.1"\n'
        f"port = {port}\n"
        "[load]\n"
        f'sensors = ["{FIXTURES}/sensors.csv"]\n'
        f'rulepacks = ["{FIXTURES}/rules/fever.rules", "{FIXTURES}/rules/fire.rules"]\n'
        f'packs = ["{FIXTURES}/packs/remedies.nt"]\n' + extra,
        encoding="utf-8",
    )
    return cfg


@pytest.fixture
def config_path(tmp_path) -> Path:
    return write_config(tmp_path)


def run_cli(*argv: str) -> int:
    return main(list(argv))


# -- replay ---------------------------------------------------------------------


def test_replay_empty_log(tmp_path, config_path, capsys):
    log = tmp_path / "empty.csv"
    log.write_text("# nothing here\n", encoding="utf-8")
    assert run_cli("replay", str(log), "--config", str(config_path)) == 0
    out = capsys.readouterr().out
    assert "readings 0" in out
    assert "triples 0" in out
    assert "derived 0" in out


def test_replay_single_fever_line(tmp_path, config_path, capsys):
    log = tmp_path / "one.csv"
    log.write_text("thermo1,temperature,39.0,cel,1700000000000\n", encoding="utf-8")
    assert run_cli("replay", str(log), "--config", str(config_path)) == 0
    out = capsys.readouterr().out
    assert "readings 1" in out
    assert "derived 1" in out
    assert "rule fever 1" in out


def test_replay_aborts_on_bad_line_with_number(tmp_path, config_path, capsys):
    log = tmp_path / "bad.csv"
    log.write_text(
        "thermo1,temperature,39.0,cel,1700000000000\nthermo1,temperature,not-a-number,cel,5\n",
        encoding="utf-8",
    )
    assert run_cli("replay", str(log), "--config", str(config_path)) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_replay_mixed_fixture_summary(config_path, capsys):
    log = FIXTURES / "replay" / "mixed.csv"
    assert run_cli("replay", str(log), "--config", str(config_path)) == 0
    out = capsys.readouterr().out
    assert "readings 100" in out


def test_replay_determinism(tmp_path, config_path, capsys):
    log = FIXTURES / "replay" / "mixed.csv"
    runs = []
    for _ in range(2):
        assert run_cli("replay", str(log), "--config", str(config_path)) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_replay_realtime_paces_by_timestamp_deltas(tmp_path, config_path, capsys):
    log = tmp_path / "paced.csv"
    log.write_text(
        "thermo1,temperature,36.0,cel,1000\n"
        "thermo1,temperature,36.1,cel,1120\n"
        "thermo1,temperature,36.2,cel,1240\n",
        encoding="utf-8",
    )
    start = time.monotonic()
    assert run_cli("replay", str(log), "--config", str(config_path), "--speed", "realtime") == 0
    assert time.monotonic() - start >= 0.24  # two 120 ms gaps


def test_replay_missing_config_file(tmp_path, capsys):
    log = tmp_path / "x.csv"
    log.write_text("", encoding="utf-8")
    assert run_cli("replay", str(log), "--config", str(tmp_path / "nope.toml")) == 2


def test_config_env_var_fallback(tmp_path, config_path, capsys, monkeypatch):
    log = tmp_path / "one.csv"
    log.write_text("thermo1,temperature,39.0,cel,1\n", encoding="utf-8")
    monkeypatch.setenv("KNOTGATE_CONFIG", str(config_path))
    assert run_cli("replay", str(log)) == 0
    assert "derived 1" in capsys.readouterr().out


# -- validate ---------------------------------------------------------------------


def test_validate_fever_pack(capsys):
    assert run_cli("validate", str(FIXTURES / "rules" / "fever.rules")) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_unsafe_rule_names_variable(tmp_path, capsys):
    pack = tmp_path / "bad.rules"
    pack.write_text(
        "PACK p RULE r : IF ?o rdf:type ssn:Observation THEN ?ghost m3:a m3:b .",
        encoding="utf-8",
    )
    assert run_cli("validate", str(pack)) == 1
    assert "?ghost" in capsys.readouterr().out


def test_validate_syntax_error(tmp_path, capsys):
    pack = tmp_path / "broken.rules"
    pack.write_text("PACK p RULE broken", encoding="utf-8")
    assert run_cli("validate", str(pack)) == 1


def test_validate_malformed_number_is_a_syntax_error(tmp_path, capsys):
    pack = tmp_path / "number.rules"
    pack.write_text(
        "PACK p RULE r : IF ?o ssn:observationResult ?v FILTER ?v > 1e- THEN ?o m3:a m3:b .",
        encoding="utf-8",
    )
    assert run_cli("validate", str(pack)) == 1
    assert capsys.readouterr().out.startswith("syntax error: malformed number '1e-'")


@pytest.mark.parametrize(
    "path",
    sorted((FIXTURES / "rules").iterdir()) + sorted((FIXTURES / "packs").iterdir()),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_validate_every_fixture(path, capsys):
    assert run_cli("validate", str(path)) == 0
    assert capsys.readouterr().out.startswith("ok: ")


def test_validate_rule_pack_that_opens_with_comment_lines(tmp_path, capsys):
    pack = tmp_path / "commented.rules"
    pack.write_text(
        "# fever rules\n\n  # one rule\n"
        "PACK p RULE r : IF ?o ssn:observationResult ?v FILTER ?v > 38 THEN ?o m3:indicates m3:Fever .\n",
        encoding="utf-8",
    )
    assert run_cli("validate", str(pack)) == 0
    assert capsys.readouterr().out == "ok: rule pack p, 1 rule(s)\n"


def test_validate_triple_file_that_opens_with_comment_lines(tmp_path, capsys):
    doc = tmp_path / "commented.nt"
    doc.write_text("# PACK is no triple\n\n<urn:a> <urn:b> <urn:c> .\n", encoding="utf-8")
    assert run_cli("validate", str(doc)) == 0
    assert capsys.readouterr().out == "ok: triple file, 1 triple(s)\n"


def test_validate_triple_file(capsys):
    assert run_cli("validate", str(FIXTURES / "packs" / "remedies.nt")) == 0
    assert "3 triple(s)" in capsys.readouterr().out


def test_validate_missing_file():
    assert run_cli("validate", "/nonexistent/never.rules") == 2


# -- query ------------------------------------------------------------------------


def test_query_command_prints_aligned_table(config_path, capsys):
    code = run_cli("query", "SELECT ?r WHERE { m3:Fever m3:hasRemedy ?r }", "--config", str(config_path))
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].strip() == "r"
    assert lines[1:] == ["m3:ColdCompress", "m3:GingerTea", "m3:Hydration"]


def test_query_command_syntax_error(config_path, capsys):
    assert run_cli("query", "SELECT nope", "--config", str(config_path)) == 1


@pytest.mark.parametrize("number", ["1e+", "2²"])
def test_query_command_malformed_number(config_path, capsys, number):
    text = f"SELECT ?v WHERE {{ ?o ssn:observationResult ?v }} FILTER ?v > {number}"
    assert run_cli("query", text, "--config", str(config_path)) == 1
    assert capsys.readouterr().err.startswith("query error: malformed number")


def _observation_config(tmp_path: Path) -> Path:
    """A config that installs the fever pack and loads one 40 °C observation, and ingests nothing."""
    cfg = tmp_path / "observed.toml"
    cfg.write_text(
        "[load]\n"
        f'rulepacks = ["{FIXTURES}/rules/fever.rules"]\n'
        f'packs = ["{FIXTURES}/packs/fever-observation.nt"]\n',
        encoding="utf-8",
    )
    return cfg


def test_query_command_reports_what_the_configured_packs_derive(tmp_path, capsys):
    text = "SELECT ?o WHERE { ?o m3:indicates m3:Fever }"
    assert run_cli("query", text, "--config", str(_observation_config(tmp_path))) == 0
    assert capsys.readouterr().out.splitlines() == ["o", "urn:obs:x:1"]


# -- export -----------------------------------------------------------------------


def test_export_reports_what_the_configured_packs_derive(tmp_path):
    out = tmp_path / "dump.nt"
    assert run_cli("export", str(out), "--config", str(_observation_config(tmp_path))) == 0
    triples = parse_triples(out.read_text(encoding="utf-8"))
    assert len(triples) == 7
    assert Triple(Iri("urn:obs:x:1"), make_iri("m3:indicates"), make_iri("m3:Fever")) in triples


def test_export_round_trips_store(tmp_path, config_path):
    out = tmp_path / "dump.nt"
    log = FIXTURES / "replay" / "mixed.csv"
    code = run_cli("export", str(out), "--config", str(config_path), "--replay", str(log))
    assert code == 0
    triples = parse_triples(out.read_text(encoding="utf-8"))
    assert len(triples) == len(set(triples))
    assert len(triples) > 600  # 100 readings * 6 triples + remedies + derived


def test_export_byte_identical_across_runs(tmp_path, config_path):
    log = FIXTURES / "replay" / "mixed.csv"
    outs = []
    for name in ("a.nt", "b.nt"):
        out = tmp_path / name
        assert run_cli("export", str(out), "--config", str(config_path), "--replay", str(log)) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_export_without_config_writes_empty(tmp_path):
    out = tmp_path / "empty.nt"
    assert run_cli("export", str(out)) == 0
    assert out.read_text(encoding="utf-8") == ""


# -- serve (subprocess) --------------------------------------------------------------


def child_env() -> dict[str, str]:
    """This environment with src/ first on PYTHONPATH, so a child python
    imports knotgate from this checkout whether or not it is installed."""
    parts = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in parts if p)}


def _wait_for_line(proc, needle: str, timeout: float = 10.0) -> str:
    """The first line of the child's output that holds needle.

    A reader thread hands the lines over, so the deadline holds while the
    child prints nothing; output that ends fails at once with the child's
    exit code.  Both failures show the lines read so far.
    """
    lines: queue.Queue[str] = queue.Queue()

    def read() -> None:
        for line in proc.stdout:
            lines.put(line)
        lines.put("")  # end of output

    threading.Thread(target=read, daemon=True).start()
    deadline = time.monotonic() + timeout
    seen: list[str] = []
    while True:
        try:
            line = lines.get(timeout=max(deadline - time.monotonic(), 0))
        except queue.Empty:
            raise AssertionError(f"no {needle!r} within {timeout} s; output so far: {seen}") from None
        if not line:
            code = proc.wait(timeout=5)
            raise AssertionError(f"output ended (exit code {code}) before {needle!r}: {seen}")
        if needle in line:
            return line
        seen.append(line)


def test_serve_minimal_config_answers_stats(tmp_path):
    cfg = tmp_path / "minimal.toml"
    cfg.write_text('[http]\nenabled = true\nhost = "127.0.0.1"\nport = 0\n', encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "knotgate", "serve", "--config", str(cfg)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=child_env(),
    )
    try:
        line = _wait_for_line(proc, "http listening on")
        port = int(line.rsplit(":", 1)[1])
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/api/v1/stats", timeout=5) as resp:
            body = json.load(resp)
        assert body == {
            "store_size": 0,
            "per_rule": {},
            "guard_type_errors": 0,
            "deliveries": {"ok": 0, "failed": 0, "dropped": 0, "pending": 0},
        }
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=10)
    assert proc.returncode == 0


def test_serve_missing_rulepack_file_exits_2_with_filename(tmp_path):
    cfg = tmp_path / "broken.toml"
    cfg.write_text(
        "[http]\nport = 0\n[load]\nrulepacks = [\"no-such-pack.rules\"]\n", encoding="utf-8"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "knotgate", "serve", "--config", str(cfg)],
        capture_output=True,
        text=True,
        timeout=30,
        env=child_env(),
    )
    assert proc.returncode == 2
    assert "no-such-pack.rules" in proc.stderr


def test_serve_rule_id_in_two_configured_packs_is_a_config_error(tmp_path, capsys):
    # fire.rules again under another pack id: its rule fire-risk is already active
    (tmp_path / "again.rules").write_text(
        (FIXTURES / "rules" / "fire.rules").read_text(encoding="utf-8").replace("slor-fire", "again"),
        encoding="utf-8",
    )
    cfg = write_config(tmp_path)
    cfg.write_text(cfg.read_text(encoding="utf-8").replace(
        "fire.rules\"]", f"fire.rules\", \"{tmp_path / 'again.rules'}\"]"), encoding="utf-8")
    assert main(["serve", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "fire-risk" in err


PYTHON_3_10 = shutil.which("python3.10")


@pytest.mark.skipif(PYTHON_3_10 is None, reason="no python3.10 on PATH")
def test_golden_path_runs_under_python_3_10():
    # pyproject.toml declares >=3.10; the walkthrough covers decode through egress
    env = {**os.environ, "PYTHONPATH": "src"}
    if shutil.which("pyenv"):
        # a pyenv shim runs python3.10 only from a selected version that has it
        whence = subprocess.run(["pyenv", "whence", "python3.10"], capture_output=True, text=True)
        if whence.returncode == 0:
            env["PYENV_VERSION"] = ":".join(whence.stdout.split())
    proc = subprocess.run(
        [PYTHON_3_10, "scripts/golden_path.py"], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_e2e_drive_passes_against_a_real_server():
    # a `knotgate serve` process, its HTTP, CoAP and MQTT ingest, deliveries and the bridge
    proc = subprocess.run([sys.executable, "scripts/e2e_drive.py"], cwd=REPO,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_serve_port_conflict_exits_3(tmp_path):
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    port = blocker.getsockname()[1]
    cfg = tmp_path / "conflict.toml"
    cfg.write_text(f'[http]\nhost = "127.0.0.1"\nport = {port}\n', encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "knotgate", "serve", "--config", str(cfg)],
            capture_output=True,
            text=True,
            timeout=30,
            env=child_env(),
        )
    finally:
        blocker.close()
    assert proc.returncode == 3


def test_serve_without_config_exits_2(monkeypatch, capsys):
    monkeypatch.delenv("KNOTGATE_CONFIG", raising=False)
    assert run_cli("serve") == 2


def test_usage_error_exit_code(capsys):
    assert run_cli("unknown-subcommand") == 2
