"""CI runs two things: the tier-1 tests and the bench smoke.

Every other check is a tier-1 test, so that it runs locally with the one
tier-1 command before a change is merged.  The workflow is read line by
line, since CI installs no YAML parser.
"""

from pathlib import Path

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"
RUNNING_STEPS = ["Install test dependencies", "Tier-1 tests", "Bench smoke"]


def workflow_steps(text: str) -> list[dict[str, str]]:
    """The top-level keys of each item under ``steps:``, each with the rest
    of its line; a block such as ``run: |`` keeps only ``|``."""
    steps: list[dict[str, str]] | None = None
    item = None
    for line in text.splitlines():
        body = line.lstrip()
        indent = len(line) - len(body)
        if not body or body.startswith("#"):
            continue
        if steps is None:
            steps = [] if body == "steps:" else None
            continue
        if item is None:
            item = indent
        if indent < item:
            break
        if indent == item and body.startswith("- "):
            steps.append({})
            body, indent = body[2:], indent + 2
        if indent == item + 2:
            key, _, value = body.partition(":")
            steps[-1][key] = value.strip()
    return steps or []


def _label(step: dict[str, str]) -> str:
    return step.get("name", step.get("uses"))


def _running(steps: list[dict[str, str]]) -> list[str]:
    return [_label(step) for step in steps if "run" in step]


def test_ci_runs_only_tier1_and_the_bench_smoke():
    steps = workflow_steps(WORKFLOW.read_text(encoding="utf-8"))
    assert [_label(step) for step in steps] == [
        "actions/checkout@v4", "actions/setup-python@v5", *RUNNING_STEPS]
    assert _running(steps) == RUNNING_STEPS


def test_an_inline_check_is_reported():
    text = WORKFLOW.read_text(encoding="utf-8")
    added = text + (
        "      - name: Scale smoke\n"
        "        shell: bash\n"
        "        run: |\n"
        "          - name: not a step\n"
        "            run: true\n"
    )
    assert _running(workflow_steps(added)) == [*_running(workflow_steps(text)), "Scale smoke"]
