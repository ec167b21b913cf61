"""Pinned CLI output: each invocation's (exit code, stdout, stderr) digest.

The digests were recorded before the sweep subcommand was rebuilt on the
construct/simulate builders; a refactor of the CLI or of the layers below
it must leave every byte of these outputs as it was.
"""

import hashlib

import pytest

from pdmm.cli import main

PINNED = [
    # construct: every family
    ("construct gasp -K 2 -L 2 -T 3",
     "25d38699ba4fa99c67150e88bd8c536673bacce8b1869645bce8df0157cf27f5"),
    ("construct gasp -K 2 -L 2 -T 3 -r 2",
     "25d38699ba4fa99c67150e88bd8c536673bacce8b1869645bce8df0157cf27f5"),
    ("construct gasp-rs -K 2 -L 2 -T 3 -r 2 -s 1",
     "6429c23c9b09a99d0357341c71cfca2e7d2a3f13c9ef27a22af97d7500ef0103"),
    ("construct dog -K 3 -L 2 -T 2 -r 1 -s 1",
     "f189e3dcbf95e1b5c4f5d4b2cca006d0c495f8496dc6704f4efac92a139c3ac8"),
    ("construct cat -K 2 -L 2 -T 2",
     "57c16ae8b2358614e509722d295c7553bfcd89d9e9f339d515a3e4f841cb2a68"),
    ("construct cat -K 2 -L 2 -T 2 -x 3",
     "05e106c52ee65cf698d9ecadfbe42698dcd413f2de22003065cf2a0a8e803c57"),
    ("construct qf-square -n 2",
     "09511c1c7e9704c0384bd9c1a4d5269f5337c897ae46556402316a8e1cd19670"),
    ("construct qf-power -n 2 -k 2 -m 2",
     "48d5de65d16ff964f640e167c15772adfdafd80bd48deca08b668099df35028e"),
    ("construct qf-additive -n 2 -k 1 -r 1",
     "6c72106ba9bb7d740cdd31a1822958ed63204aa535747daf1c7fcea4b0b48e95"),
    ("construct qf-klt -K 3 -T 2",
     "74f6ebb50669027ba71bebca16047187a0da46be0cdb00a925dd48c2d4448015"),
    ("construct qf-kt -n 2 -k 1 -l 1",
     "6e013bc509d1d78390ade5a7cb22160b3bff31d3378175142446df5974ffdd8a"),
    ("construct qf-kt-shift -n 2 -l 1 -r 1",
     "5d7c7c56d2d56780fa4580a74d5cee34a56d67bb6bba63ed1fdd808a0da9edff"),
    ("construct low-privacy -K 4 -L 3 -T 2",
     "d9b601fe5c069b873c13b1dc85819a9fa6f7801f484f5e52aaffa82538ad4785"),
    ("construct gasp -K 2",
     "eac1b74708a33d2a18c8c5cbabec9e11dfb78b2ab21ce9a98476df3b5e54799b"),
    # simulate: gasp and cat, both modes
    ("simulate gasp -K 2 -L 2 -T 3",
     "748ffac9daff2cbcc350efdc3726db1227d9612172c87d79c35e0c650c391bd5"),
    ("simulate gasp -K 2 -L 2 -T 3 --mode quantum --seed 7",
     "57e47557981b695089d4852769364a3975f59c00a1744417400d955061949f0d"),
    ("simulate cat -K 2 -L 2 -T 2",
     "9f5e2ad0792b34f77bb35c5cb24e88be70e527feeb2d20cce5b7d1d4ef89ab30"),
    ("simulate cat -K 2 -L 2 -T 2 --mode quantum --seed 3",
     "164a4be4e2950006c858fda0f29d8c182c469e2918618fca26d9e15642d16288"),
    # feasibility: without --l-range, with it, and with it partly above K
    ("feasibility --k-range 2:4",
     "c7fd458036a12b7c29a73736009ebe077484263c6a12ffc0b1b467275348d941"),
    ("feasibility --k-range 3:5 --l-range 2:3",
     "7aad2808897b4a7b9a5a04cfe73769c8dabd952cf9843e75ee5b7e81d4a68fad"),
    ("feasibility --k-range 2:3 --l-range 3:6",
     "e57a18975fdfe67268e671262d13d25e140949605a3ce3b7dc5f8a7e06394a1e"),
    # --help of each subcommand
    ("construct --help",
     "6a1cbb6647d33bd8e8f7486f5508b10945dbed7d41bf085147cf3ad7997fa149"),
    ("simulate --help",
     "431f4d75d6213e6bd8b0010bd5f92fb62b4d9e1873a3d256ed8f46ce9ec2adb4"),
    ("feasibility --help",
     "f18740d7a7ad2ab1d462485e6734735e14da9d7e8d77505ce69e110f1f0ca7ed"),
    ("sweep --help",
     "13c759ed2fdcfc2ea394692db2b79075e572b9cf4770acd624b9e102e8de6a00"),
    # sweep: every family; low-privacy with and without -K
    ("sweep qf-square --range 2:3",
     "595e8aede7b7298ac02492c10a455a7a6dc3b8471c27eae0b3aaa137a0364ccd"),
    ("sweep qf-power --range 2:3 -k 2 -m 2",
     "ddb1e7d43e482dc624dd1eda491cfe0b5f60fd530bdc94a36e9f7be8ab5aae07"),
    ("sweep qf-additive --range 0:2 -n 2 -k 2",
     "60a4d13430fe1176c298a025979973d9cf33566a5e8416e8e5388350e110f1d3"),
    ("sweep qf-klt --range 3:5 -T 2",
     "c30aed19e0a743105e33301006a3a5e9c895c50a66425d7e8cc6cc89d038daeb"),
    ("sweep qf-kt --range 1:2 -n 2 -l 1",
     "194ea382a254f45d44e2ebc2f6b6b547b1eb9ebdc7595319f0acecf2456ff83f"),
    ("sweep qf-kt-shift --range 1:3 -n 2 -l 1",
     "9926ac2a3dcde444b9c18fd05d61f0e3e80e95969cc9bc3ed1cdb7b00a366685"),
    ("sweep low-privacy --range 4:6 -T 2",
     "a426a0150c8539cc30ab008a9c6d0080f4e0b82b42135a99d055f32a417b7c09"),
    ("sweep low-privacy --range 4:5 -T 2 -K 5",
     "a34c892f6e6cc2322870e98a94d42e0c96eebd7d4afdce146477933ef1e2a038"),
    ("sweep low-privacy --range 3:4 -T 2 -K 8",
     "d1b1f34f2e61a0b9064fef62caa06e9d4164add704dd30130b58c20feaea6e07"),
    # cat(3,2,2) and cat(4,2,2) cannot run in quantum mode: empty R_Q and ratio cells
    ("sweep cat --range 2:4 -L 2 -T 2",
     "8b8469917fa68b89fab9279a751513143357dcfae3b496baf74c1dad022d4a0f"),
    ("sweep cat --range 2:3",
     "6be851fc31a96a42344ca48ff8a10c6596f1de1915fe8451db1cbcb26bedcddc"),
]


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def digest(code, out, err) -> str:
    return hashlib.sha256(repr((code, out, err)).encode()).hexdigest()


@pytest.mark.parametrize("command, expected", PINNED, ids=[c for c, _ in PINNED])
def test_cli_output_is_pinned(capsys, monkeypatch, command, expected):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width
    assert digest(*run(capsys, command.split())) == expected
