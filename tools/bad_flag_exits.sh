#!/bin/sh
# Run each bad request of the list below through a given coulscat command
# and check that it exits with the status its line names, with one line of
# at most 200 characters on stderr and nothing on stdout; a line of exit 4
# must be a `resource error: ` line.  Exit 2: each flag whose number the
# parser checks, given one bad value; each command that sums the series,
# given an --l-max below its floor; an energy-scan range flag given beside
# --energies-kev; an energy-scan range reversed once the defaults (3.8 to
# 200 keV) apply; and an eps whose 1 / (16 eps^4 p^2) overflows, refused
# with the scenario, before any table.
# Exit 4: profile-delta windows whose count of deltas overflows a float,
# refused as a finite count over the memory budget is; optical and
# energy-scan sweeps whose count of etas or energies is over the budget,
# refused before numpy makes them; and an l_max and counts of angles and
# etas too long for a float (`$huge`, 512 nines), each written to 15
# significant digits.  A line of the list is the expected status, a command
# and its flags, split at spaces.  The arguments are the command that runs
# coulscat:
#
#     sh tools/bad_flag_exits.sh coulscat
#     PYTHONPATH=src sh tools/bad_flag_exits.sh python -m coulscat.cli
# -f: the flags are split into words, never expanded as file patterns
set -uf
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failed=0
# 512 nines, the list's one expansion (an unquoted here-document)
huge=9
while [ ${#huge} -lt 310 ]; do
    huge=$huge$huge
done
while read -r want command flags; do
    # $flags unquoted: one word per flag
    "$@" "$command" $flags </dev/null >"$tmp/out" 2>"$tmp/err"
    status=$?
    lines=$(wc -l <"$tmp/err")
    chars=$(wc -c <"$tmp/err")
    prefix=
    if [ "$want" -eq 4 ]; then
        prefix="resource error: "
    fi
    case $(cat "$tmp/err") in
        "$prefix"*) prefixed=1 ;;
        *) prefixed=0 ;;
    esac
    # one line of at most 200 characters and its newline
    if [ "$status" -eq "$want" ] && [ "$lines" -eq 1 ] && [ "$chars" -le 201 ] \
            && [ ! -s "$tmp/out" ] && [ "$prefixed" -eq 1 ]; then
        echo "ok   $command $flags: $(cat "$tmp/err")"
    else
        echo "FAIL $command $flags: exit $status (want $want), $lines stderr lines," \
            "$chars characters" >&2
        cat "$tmp/out" "$tmp/err" >&2
        failed=1
    fi
done <<LIST
2 profile-delta --delta-min=nan
2 profile-delta --delta-max=inf
2 profile-delta --delta-step=0
2 angular --theta-n=2.5
2 angular --delta=abc
2 conservation --sphere-n=-1
2 optical --eta-n=0
2 optical --eta-min=0
2 optical --eta-max=-inf
2 energy-scan --e-n=many
2 energy-scan --e-min-kev=-5
2 energy-scan --e-max-kev=inf
2 energy-scan --energies-kev=3.8,0
2 energy-scan --energies-kev=3800 --e-n=2 --e-min-kev=5
2 energy-scan --e-min-kev=200 --e-max-kev=3.8
2 energy-scan --e-max-kev=2
2 angular --Z1=100000000000000000000
2 energy-scan --Z2=-9007199254740993
2 angular --eta=1 --delta=0 --theta-n=3 --eps=1e-2 --l-max=50
2 profile-delta --eta=1 --theta=0.5 --eps=1e-2 --l-max=50
2 optical --eta-min=1 --eta-max=2 --eps=1e-2 --l-max=50
2 optical --model=square-well --energy-mev=1 --well-radius-fm=11.4 --eps=1e-2 --l-max=50
2 conservation --eta=1 --eps=1e-2 --l-max=50
2 angular --eta=1 --eps=1e-80
4 profile-delta --eta=10 --theta=0.03 --delta-step=5e-324
4 profile-delta --eta=10 --theta=0.03 --delta-step=1e-310
4 profile-delta --eta=10 --theta=0.03 --delta-max=1e300 --delta-step=1e-10
4 profile-delta --eta=10 --theta=0.03 --delta-min=-1e308 --delta-max=1e308 --delta-step=1
4 profile-delta --eta=10 --theta=0.03 --delta-step=1e-300
4 optical --eta-min=1 --eta-max=2 --eta-n=100000000
4 energy-scan --e-n=100000000
4 angular --eta=1 --delta=0 --theta-n=$huge
4 conservation --eta=1 --sphere-n=$huge
4 angular --eta=1 --l-max=$huge
4 optical --eta-min=1 --eta-max=2 --eta-n=$huge
LIST
exit $failed
