"""Golden traces: the sha256 of every construction's trace at seed 13 and
256x512.  A refactor or speed-up must leave every trace byte-identical, so a
changed hash here means changed behaviour, not a stale constant."""
import hashlib

import pytest

from leftre.cli import CONSTRUCTIONS, main

GOLDEN_SHA256 = {
    "markers": "1b00d71d62940170c95b21754a82dd537f2f136f2975d9d976cb24ad2d30dd0b",
    "generic": "86b788a4eadd045d997acbe034d397e7a12f1213a9243204439b6b4ddb32c598",
    "selfref": "4c15e549f492350109490304c124a6518b97aa66a4ecaf6fcc7408736438c87d",
    "bambam": "c5da720949f7616dfdb950b07911a246c3f70fbb1766665ff67fc7e685c2d239",
    "zulu-min": "f6385f4ebb9cb6aa2a7bfd8c30cf39f7f48732b3f8ee37a2cff731ad41f190eb",
    "zulu-max": "d8ba62e8845520a7ba82226c59716c4c0f0f09637a8ab08ae0d3031dd956c1bb",
    "maxsep": "a77db738a8d387e60a9a257e70af3bd3ebaf9af25787f92f172646b6e0a26d2f",
    "split": "bfb2901624cb5dabb810eb0df9143ff3c610dd05a399d3e377eb929e93a7abf4",
    "lowerfarm": "99681f01d4dc13d85f05baf6cbc6718d251ce0adf51de53ea5e00395e9a7f448",
    "tilde-a": "b87370e79c7a7af7787a903e8614d665d81ed184542fcb29008b949d738de5ce",
    "inc-decode": "613c312d749b64438a8ba226cbb4ae757318ec17c369b14daee527e612e3d785",
    "gazebo": "0da32a8ca513229d10e455d261d2535aff70399a020bdb5ce15248f2c3b77423",
    "diagonal": "efff1f2bea18b99cf201c0a65c8a8ab17f0b0d212d4947708f26912016b5d93e",
    "excise": "7c160acd649b5c5361f31aecfdcbee3b96418675ede3086bf803d81624a78c2b",
}


def test_every_construction_pinned():
    assert sorted(GOLDEN_SHA256) == sorted(CONSTRUCTIONS)


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_trace_matches_golden(construction, tmp_path):
    out = tmp_path / "trace.jsonl"
    code = main(["run", construction, "--stages", "256", "--bits", "512",
                 "--seed", "13", "--out", str(out)])
    assert code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[construction]


# The packed-kernel constructions at 1024x2048, seed 13: hashes recorded
# from the per-bit implementations they replaced.
WIDE_GOLDEN_SHA256 = {
    "maxsep": "8c7d019d55159e49b26614b6bc1778fae3839be5388e6ed158fd4c6da3cbef73",
    "split": "426903100b2faf622af6345bf0af721a60033608df9f7f06f809758e66d5cefd",
    "lowerfarm": "5725b5f1889e386700cdb8f6f04bc9bb68fd4e8a301ebd6b3ac58b1e568c126f",
    "inc-decode": "a4fed25d94183d1dbe68580561ebfa757cf07acd939ed33996784ea7048ebfbc",
}


@pytest.mark.parametrize("construction", sorted(WIDE_GOLDEN_SHA256))
def test_wide_trace_matches_golden(construction, tmp_path):
    out = tmp_path / "trace.jsonl"
    code = main(["run", construction, "--stages", "1024", "--bits", "2048",
                 "--seed", "13", "--out", str(out)])
    assert code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == WIDE_GOLDEN_SHA256[construction]


# The zulu, tilde and diagonal runs at 64x128, seed 13, whose stage values
# are computed only where they can move.  Here I_2 (positions 17-273)
# crosses the bit horizon, so the zulu runs reach btt_check's per-position
# bit_fn reads, which no 256x512 run does.
SMALL_GOLDEN_SHA256 = {
    "zulu-min": "54430b45a2c8dc1479ece7da46771fe9a043ca421ddd3d7fe6c631d70a8ffc32",
    "zulu-max": "735f8f42b99cd0aafabc999b653d193376624185f69240e67fcdadc285840363",
    "tilde-a": "6667121e011be042c66fc7f8fe4e1d44ebd869cac833ec48cbb3cd2835db8fc9",
    "diagonal": "4b6b8dc35f611aca2845fbf8187ed38edb4521d4b72574a62f36a5d911345366",
}


@pytest.mark.parametrize("construction", sorted(SMALL_GOLDEN_SHA256))
def test_small_trace_matches_golden(construction, tmp_path):
    out = tmp_path / "trace.jsonl"
    code = main(["run", construction, "--stages", "64", "--bits", "128",
                 "--seed", "13", "--out", str(out)])
    assert code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == SMALL_GOLDEN_SHA256[construction]
