"""The README's list of granular operations names only exported functions."""

import re
from pathlib import Path

import signedfj

README = Path(__file__).resolve().parent.parent / "README.md"


def granular_operations() -> list[str]:
    text = README.read_text(encoding="utf-8")
    listing = re.search(r"Granular operations \(([^)]*)\)", text)
    assert listing, "README has no 'Granular operations (...)' list"
    return re.findall(r"`(\w+)`", listing.group(1))


def test_granular_operations_are_exported():
    names = granular_operations()
    assert names
    missing = [name for name in names if name not in signedfj.__all__]
    assert missing == []
