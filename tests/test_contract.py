"""tests/contract.py, the behaviour contract, runs only commands the CLI
accepts, so a CLI change that breaks it fails here and not only in CI."""

import contract
from tripsolve import cli


def test_every_contract_command_parses(tmp_path):
    parser = cli.build_parser()
    names = []
    for name, argv in contract.commands(tmp_path / "out dir", tmp_path / "in puts"):
        parser.parse_args(argv)  # exits 2 on an argv the CLI rejects
        names.append(name)
    slips, generators = len(contract.SLIPS), len(contract.INSTANCES)
    assert len(set(names)) == len(names) == 2 + slips + generators * (1 + len(contract.SOLVES))


def test_bench_csv_drops_wall_seconds_and_blanks_astar_counts():
    assert cli._CSV_FIELDS[4:7] == ("solver", "wall_seconds", "nodes_expanded")
    text = (
        ",".join(cli._CSV_FIELDS) + "\r\n"
        "k:00000,3,2,1.0,astar,0.01,7,-1.5\r\n"
        "k:00000,3,2,1.0,topo,0.02,9,-1.5\r\n"
    )
    assert contract.bench_csv(text, blank_astar=True) == (
        "instance,n,delta,alpha,solver,nodes_expanded,objective\r\n"
        "k:00000,3,2,1.0,astar,,-1.5\r\n"
        "k:00000,3,2,1.0,topo,9,-1.5\r\n"
    )
    assert contract.bench_csv(text, blank_astar=False).count(",7,") == 1
