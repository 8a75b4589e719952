"""Pinned CLI output: exit code, exact stdout and SHA-256 of every file a
command writes (CWT1 tables, MR1 records), for fixed instances and seeds.

Any change to the solver, the tree path, the bounds or the simulator that
alters a printed line or a written byte fails here.
"""

import hashlib
import sys

import pytest

from mlcr.cli import main
from mlcr.core import MultiLayerGraph, RobberSpec, write_mlg_file
from mlcr.generators import gen_copsbane, gen_cycle_matchings, gen_grid, gen_slices

GRAPHS = {
    "grid4.mlg": gen_grid(4)[0],
    "grid6.mlg": gen_grid(6)[0],
    "slices2.mlg": gen_slices(2)[0],
    "copsbane8.mlg": gen_copsbane(8, seed=3)[0],
    "cycle6.mlg": gen_cycle_matchings(6)[0],  # 12 vertices, UNION robber layer
    # the path 0-1-2-3, robber on the same edges: a tree robber layer
    "path4.mlg": MultiLayerGraph(n=4, layers=(((0, 1), (1, 2), (2, 3)),)),
    # one cop on the path 0-1-2-3 cannot guard the tree edge 0-3 (robber win)
    "tree4.mlg": MultiLayerGraph(
        n=4,
        layers=(((0, 1), (1, 2), (2, 3)),),
        robber_spec=RobberSpec.EXPLICIT,
        robber_edges=((0, 3), (0, 1), (1, 2)),
    ),
    # two layers and a tree robber layer; one cop on layer 1 leaves no robber's edge
    "tree7.mlg": MultiLayerGraph(
        n=7,
        layers=(((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6)), ((0, 3), (3, 6), (1, 4), (2, 5))),
        robber_spec=RobberSpec.EXPLICIT,
        robber_edges=((0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (4, 6)),
    ),
}

# name: (arguments with {dir} for the working directory, exit code, stdout,
#        {written file: sha256})
CASES = {
    "solve-state-graph-dump": (
        ["solve", "{dir}/grid4.mlg", "--allocation", "2,0", "--dump-table", "{dir}/t.cwt"],
        0,
        "TABLE={dir}/t.cwt\nMETHOD=state-graph\nALLOCATION=2,0\nVERDICT=COP\nASSIGNMENT=0,0\n"
        "PLACEMENT=0,0\n",
        {"t.cwt": "4d954a81ff585273429b897a839309034c91cc52754957632655a7ceaef48986"},
    ),
    "solve-state-graph-robber-dump": (
        ["solve", "{dir}/grid4.mlg", "--allocation", "1,1", "--dump-table", "{dir}/t.cwt"],
        1,
        "TABLE={dir}/t.cwt\nMETHOD=state-graph\nALLOCATION=1,1\nVERDICT=ROBBER\nASSIGNMENT=0,1\n"
        "SAFE_VERTEX=2\n",
        {"t.cwt": "0f23cbac5e8a14614a6218ed1b8bdba3e76453af2167c3bec86e7f7f5af7c232"},
    ),
    # three cops, two on one layer: 16^4 * 4 = 262,144 states, the first pinned k = 3 table
    "solve-state-graph-three-cops-dump": (
        ["solve", "{dir}/grid4.mlg", "--allocation", "2,1", "--dump-table", "{dir}/t.cwt"],
        0,
        "TABLE={dir}/t.cwt\nMETHOD=state-graph\nALLOCATION=2,1\nVERDICT=COP\nASSIGNMENT=0,0,1\n"
        "PLACEMENT=0,0,0\n",
        {"t.cwt": "856ddc7cf480178f5df21d8eb923af70a700a700635ec95e66a2103d13b21e47"},
    ),
    "solve-tree-robber-dump": (
        ["solve", "{dir}/tree4.mlg", "--allocation", "1", "--dump-table", "{dir}/t.cwt"],
        1,
        "TABLE={dir}/t.cwt\nMETHOD=tree\nALLOCATION=1\nVERDICT=ROBBER\nASSIGNMENT=0\n"
        "ROBBERS_EDGE 0 3 ncops=1 dist=3\n",
        {"t.cwt": "ad2110874620347c1053e1d779203ed89686e10c57659c39edcbd0cca270ee97"},
    ),
    "solve-tree-cop": (
        ["solve", "{dir}/tree7.mlg", "--allocation", "2,0"],
        0,
        "METHOD=tree\nALLOCATION=2,0\nVERDICT=COP\nASSIGNMENT=0,0\nPLACEMENT=0,0\n",
        {},
    ),
    # the tree path, picked by detection (the `--tree-fast` flag that forced it is gone)
    "solve-tree-fast-cop": (
        ["solve", "{dir}/tree4.mlg", "--allocation", "2"],
        0,
        "METHOD=tree\nALLOCATION=2\nVERDICT=COP\nASSIGNMENT=0,0\nPLACEMENT=0,0\n",
        {},
    ),
    "solve-cops-state-graph": (
        ["solve", "{dir}/grid4.mlg", "--cops", "2"],
        0,
        "METHOD=state-graph\nWINNING_ALLOCATION=2,0\nVERDICT=COP\nASSIGNMENT=0,0\nPLACEMENT=0,0\n",
        {},
    ),
    "solve-cops-state-graph-robber": (
        ["solve", "{dir}/grid4.mlg", "--cops", "1"],
        1,
        "METHOD=state-graph\nVERDICT=ROBBER\nASSIGNMENT=1\nSAFE_VERTEX=1\n",
        {},
    ),
    "solve-cops-tree": (
        ["solve", "{dir}/tree7.mlg", "--cops", "1"],
        0,
        "METHOD=tree\nWINNING_ALLOCATION=1,0\nVERDICT=COP\nASSIGNMENT=0\nPLACEMENT=0\n",
        {},
    ),
    "solve-cops-tree-robber": (
        ["solve", "{dir}/tree4.mlg", "--cops", "1"],
        1,
        "METHOD=tree\nVERDICT=ROBBER\nROBBERS_EDGE 0 3 ncops=1 dist=3\n",
        {},
    ),
    # zero cops: no composition to try, every start is safe, vertex 0 first
    "solve-cops-tree-zero-cops": (
        ["solve", "{dir}/path4.mlg", "--cops", "0"],
        1,
        "METHOD=tree\nVERDICT=ROBBER\nSAFE_VERTEX=0\n",
        {},
    ),
    "solve-cops-state-graph-zero-cops": (
        ["solve", "{dir}/grid4.mlg", "--cops", "0"],
        1,
        "METHOD=state-graph\nVERDICT=ROBBER\nSAFE_VERTEX=0\n",
        {},
    ),
    # `--allocation` with no cop names the state graph, also on a tree robber layer
    "solve-allocation-tree-zero-cops": (
        ["solve", "{dir}/path4.mlg", "--allocation", "0"],
        1,
        "METHOD=state-graph\nALLOCATION=0\nVERDICT=ROBBER\nSAFE_VERTEX=0\n",
        {},
    ),
    "solve-allocation-state-graph-zero-cops": (
        ["solve", "{dir}/grid4.mlg", "--allocation", "0,0"],
        1,
        "METHOD=state-graph\nALLOCATION=0,0\nVERDICT=ROBBER\nSAFE_VERTEX=0\n",
        {},
    ),
    "solve-free-choice-zero-cops": (
        ["solve", "{dir}/grid4.mlg", "--free-choice", "0"],
        1,
        "VERDICT=ROBBER\nSAFE_VERTEX=0\n",
        {},
    ),
    "solve-free-choice": (
        ["solve", "{dir}/grid4.mlg", "--free-choice", "2"],
        0,
        "WINNING_ALLOCATION=2,0\nVERDICT=COP\nASSIGNMENT=0,0\n",
        {},
    ),
    "solve-free-choice-robber": (
        ["solve", "{dir}/grid4.mlg", "--free-choice", "1"],
        1,
        "VERDICT=ROBBER\n",
        {},
    ),
    "solve-free-choice-tree": (
        ["solve", "{dir}/tree7.mlg", "--free-choice", "2"],
        0,
        "WINNING_ALLOCATION=2,0\nVERDICT=COP\nASSIGNMENT=0,0\n",
        {},
    ),
    "bounds-grid4": (
        ["bounds", "{dir}/grid4.mlg"],
        0,
        "LB_mec=1\nUB_domset=6\nUB_treewidth=n/a (too large)\n",
        {},
    ),
    # both dumps, each block rendered after its bound line
    "bounds-cycle6-dumps": (
        ["bounds", "{dir}/cycle6.mlg", "--dump-domset", "--dump-td"],
        0,
        "LB_mec=1\nUB_domset=6\nDOMSET 6 0:1 2:1 4:1 6:1 8:1 10:1\n"
        "UB_treewidth=n/a (disconnected layer)\nTD 12 width=2\nBAG 0 0 10 11\nBAG 1 0 9 10\n"
        "BAG 2 0 8 9\nBAG 3 0 7 8\nBAG 4 0 6 7\nBAG 5 0 5 6\nBAG 6 0 4 5\nBAG 7 0 3 4\n"
        "BAG 8 0 2 3\nBAG 9 0 1 2\nBAG 10 0 1\nBAG 11 0\nEDGE 0 1\nEDGE 1 2\nEDGE 2 3\nEDGE 3 4\n"
        "EDGE 4 5\nEDGE 5 6\nEDGE 6 7\nEDGE 7 8\nEDGE 8 9\nEDGE 9 10\nEDGE 10 11\n",
        {},
    ),
    # dense layers: existential closure holds up to k = 3 on both graphs
    "experiment-n48-mec3": (
        ["experiment", "-n", "48", "--p", "0.5", "--tau", "2", "--seeds", "1,2"],
        0,
        "format,n,p,tau,seed,delta_mlg,gamma_greedy,domination_bound,mec_lb_k\n"
        "mlcr-experiment-v1,48,0.5,2,1,16,5,17.0519,3\n"
        "mlcr-experiment-v1,48,0.5,2,2,17,4,16.4276,3\n"
        "summary,mean_gamma=4.500,mean_delta=16.500\n",
        {},
    ),
    "simulate-tablebase-record": (
        [
            "--seed", "5", "simulate", "{dir}/grid4.mlg", "--allocation", "2,0",
            "--cop-strategy", "tablebase", "--robber-strategy", "tablebase",
            "--batch", "3", "--record", "{dir}/m.mr1",
        ],
        0,
        "MATCH seed=5 outcome=CAPTURE round=17\nMATCH seed=6 outcome=CAPTURE round=17\n"
        "MATCH seed=7 outcome=CAPTURE round=17\nSUMMARY matches=3 captures=3\n",
        {"m.mr1": "fc8639ea68b739b088464c6fd4a587b8cbd1f975208e4a5fafd085445e5dad4d"},
    ),
    # one cop per layer cannot catch the robber: every cop move is a chase move
    "simulate-tablebase-survival-record": (
        [
            "--seed", "5", "simulate", "{dir}/grid4.mlg", "--allocation", "1,1",
            "--cop-strategy", "tablebase", "--robber-strategy", "tablebase",
            "--rounds", "200", "--batch", "3", "--record", "{dir}/m.mr1",
        ],
        0,
        "MATCH seed=5 outcome=SURVIVED\nMATCH seed=6 outcome=SURVIVED\n"
        "MATCH seed=7 outcome=SURVIVED\nSUMMARY matches=3 captures=0\n",
        {"m.mr1": "7dc701d07426775c392a2f93910681cefd29f3cda7483d7b5f7556428d8e0f5b"},
    ),
    # the digest fixes the expander sample and its two-edge-colouring
    "generate-copsbane": (
        ["--seed", "3", "generate", "copsbane", "-n", "8", "-o", "{dir}/c.mlg"],
        0,
        "WROTE={dir}/c.mlg\nVERTICES=73\nLAYERS=2\n",
        {"c.mlg": "2b2ae596b585ac79fc81868c0ced75bebbf9d8c987baa52a7e70e87f095183d4"},
    ),
    # MLG1 carries no family tag; --tag names the graph in the MR1 records
    "simulate-copsbane-greedy-record": (
        [
            "--seed", "1", "simulate", "{dir}/copsbane8.mlg", "--tag", "copsbane:8,3",
            "--allocation", "1,1", "--cop-strategy", "greedy", "--robber-strategy", "copsbane",
            "--batch", "3", "--record", "{dir}/m.mr1",
        ],
        0,
        "MATCH seed=1 outcome=SURVIVED tags=DEGRADED\nMATCH seed=2 outcome=SURVIVED tags=DEGRADED\n"
        "MATCH seed=3 outcome=SURVIVED tags=DEGRADED\nSUMMARY matches=3 captures=0\n",
        {"m.mr1": "4083308097a172d5b98676867af926056cd46a32ee792b2659038455a12aebd0"},
    ),
    # both cops on the all-rows layer: the guard plays in transposed coordinates
    "simulate-grid-guard-record": (
        [
            "--seed", "1", "simulate", "{dir}/grid6.mlg", "--allocation", "2,0",
            "--cop-strategy", "grid_guard", "--robber-strategy", "tablebase",
            "--batch", "3", "--record", "{dir}/m.mr1",
        ],
        0,
        "MATCH seed=1 outcome=CAPTURE round=68\nMATCH seed=2 outcome=CAPTURE round=68\n"
        "MATCH seed=3 outcome=CAPTURE round=68\nSUMMARY matches=3 captures=3\n",
        {"m.mr1": "a45f414a73479ddccb028f7812f2e19097a9d4a1b48e980ad393b369cb79db29"},
    ),
    "simulate-slices-greedy-record": (
        [
            "--seed", "1", "simulate", "{dir}/slices2.mlg", "--tag", "slices:2",
            "--allocation", "1,1", "--cop-strategy", "greedy", "--robber-strategy", "slices",
            "--batch", "3", "--record", "{dir}/m.mr1",
        ],
        0,
        "MATCH seed=1 outcome=SURVIVED\nMATCH seed=2 outcome=SURVIVED\n"
        "MATCH seed=3 outcome=SURVIVED\nSUMMARY matches=3 captures=0\n",
        {"m.mr1": "0ebb0de8c6a3c523ef7e9cf7c70232db786a4fd475e5e70ea1399769f4cc73a0"},
    ),
}

@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_pinned(name, tmp_path, capsys):
    args, code, stdout, files = CASES[name]
    for file_name, g in GRAPHS.items():
        write_mlg_file(g, tmp_path / file_name)
    directory = str(tmp_path)
    got_code = main([a.format(dir=directory) for a in args])
    out = capsys.readouterr().out
    assert (got_code, out) == (code, stdout.format(dir=directory))
    for file_name, digest in files.items():
        assert hashlib.sha256((tmp_path / file_name).read_bytes()).hexdigest() == digest, file_name


# `mlcr [COMMAND] --help` stdout at an 80-column terminal.  argparse lays
# short options out differently from Python 3.13 on, so the pins are for
# the versions before it.
HELP = {
    '': (
        'usage: mlcr [-h] [--state-budget STATE_BUDGET] [--seed SEED]\n'
        '            {solve,generate,bounds,simulate,play,experiment,verify-paper} ...\n'
        '\n'
        'Command-line surface: solve, generate, bounds, simulate, play, experiment,\n'
        'verify-paper. Exit codes for `solve`: 0 cop win, 1 robber win, 2 usage/parse\n'
        'error, 3 state budget exceeded. All timing output goes to stderr so stdout is\n'
        'a deterministic function of the arguments and seeds.\n'
        '\n'
        'positional arguments:\n'
        '  {solve,generate,bounds,simulate,play,experiment,verify-paper}\n'
        '    solve               decide a game instance\n'
        '    generate            construct a family instance\n'
        '    bounds              lower/upper bounds for a graph\n'
        '    simulate            run strategy matches\n'
        '    play                interactive match against the tablebase\n'
        '    experiment          random layered-graph bound sweep\n'
        '    verify-paper        run the acceptance criteria suite\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --state-budget STATE_BUDGET\n'
        '  --seed SEED\n'
    ),
    'solve': (
        'usage: mlcr solve [-h] [--allocation ALLOCATION] [--cops COPS]\n'
        '                  [--free-choice FREE_CHOICE] [--dump-table DUMP_TABLE]\n'
        '                  graph\n'
        '\n'
        'positional arguments:\n'
        '  graph\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --allocation ALLOCATION\n'
        '                        per-layer cop counts, e.g. 2,0\n'
        '  --cops COPS           total cops, solver picks the allocation\n'
        '  --free-choice FREE_CHOICE\n'
        '                        total cops, robber picks its layer\n'
        '  --dump-table DUMP_TABLE\n'
        '                        write the solved table in CWT1 format to this file\n'
    ),
    'generate': (
        'usage: mlcr generate [-h] -o OUTPUT [--report REPORT] [-n N] [-k K]\n'
        '                     [--tau TAU] [--p P] [--alpha ALPHA] [--D D]\n'
        '                     [--robber {COMPLETE,UNION}]\n'
        '                     {grid,mirror,slices,cycle-matchings,soifer,random-layers,copsbane,domset-reduction}\n'
        '\n'
        'positional arguments:\n'
        '  {grid,mirror,slices,cycle-matchings,soifer,random-layers,copsbane,domset-reduction}\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  -o OUTPUT, --output OUTPUT\n'
        '  --report REPORT\n'
        '  -n N\n'
        '  -k K\n'
        '  --tau TAU\n'
        '  --p P\n'
        '  --alpha ALPHA\n'
        '  --D D\n'
        '  --robber {COMPLETE,UNION}\n'
    ),
    'bounds': (
        'usage: mlcr bounds [-h] [--max-k MAX_K] [--dump-domset] [--dump-td] graph\n'
        '\n'
        'positional arguments:\n'
        '  graph\n'
        '\n'
        'options:\n'
        '  -h, --help     show this help message and exit\n'
        '  --max-k MAX_K\n'
        '  --dump-domset\n'
        '  --dump-td\n'
    ),
    'simulate': (
        'usage: mlcr simulate [-h] --allocation ALLOCATION\n'
        '                     [--cop-strategy COP_STRATEGY]\n'
        '                     [--robber-strategy ROBBER_STRATEGY] [--rounds ROUNDS]\n'
        '                     [--batch BATCH] [--record RECORD] [--tag TAG]\n'
        '                     graph\n'
        '\n'
        'positional arguments:\n'
        '  graph\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --allocation ALLOCATION\n'
        '  --cop-strategy COP_STRATEGY\n'
        '  --robber-strategy ROBBER_STRATEGY\n'
        '  --rounds ROUNDS\n'
        '  --batch BATCH\n'
        '  --record RECORD       write MR1 records to this file\n'
        '  --tag TAG             name the graph in the MR1 records\n'
    ),
    'play': (
        'usage: mlcr play [-h] --allocation ALLOCATION [--role {robber,cops}] graph\n'
        '\n'
        'positional arguments:\n'
        '  graph\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --allocation ALLOCATION\n'
        '  --role {robber,cops}\n'
    ),
    'experiment': (
        'usage: mlcr experiment [-h] [-n N] [--p P] [--tau TAU] [--seeds SEEDS]\n'
        '                       [-o OUTPUT]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  -n N\n'
        '  --p P\n'
        '  --tau TAU\n'
        '  --seeds SEEDS\n'
        '  -o OUTPUT, --output OUTPUT\n'
    ),
    'verify-paper': (
        'usage: mlcr verify-paper [-h] [--only ONLY]\n'
        '\n'
        'options:\n'
        '  -h, --help   show this help message and exit\n'
        '  --only ONLY  run only criteria whose id contains this substring\n'
    ),
}


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse help layout changed in 3.13")
@pytest.mark.parametrize("command", sorted(HELP))
def test_help_text_is_pinned(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(([command] if command else []) + ["--help"]) == 0
    assert capsys.readouterr().out == HELP[command]
