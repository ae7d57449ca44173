import json

from cli_digests import COMMANDS, DIGESTS, digests, key


def test_every_command_prints_what_it_printed_when_digested():
    stored = json.loads(DIGESTS.read_text())
    assert list(stored) == [key(argv) for argv in COMMANDS], (
        "the command list changed: regenerate the digests"
    )
    changed = [name for name, value in digests().items() if stored[name] != value]
    assert not changed, "output changed: " + "; ".join(changed)
