"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``campaign``      run a scaled measurement campaign and print Tables 3/4
``historical``    run the §2 pipeline and print the Figure 1 series
``characterize``  run the §3 characterization study
``table1``        regenerate the code-similarity table
``table2``        regenerate the model-comparison table
``demo``          classify one freshly generated phishing page
``report``        render a telemetry report (live campaign or saved JSON)

Every command accepts ``--seed``; campaign/table output can be exported
with ``--export-dir`` (which also writes ``telemetry.json``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .config import SimulationConfig


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .analysis import build_fig9, build_table3, build_table4
    from .analysis.export import (
        write_figure_json,
        write_table_json,
        write_timelines_csv,
    )
    from .analysis.report import render_figure, render_table3, render_table4
    from .sim import CampaignWorld

    config = SimulationConfig(
        seed=args.seed,
        duration_days=args.days,
        target_fwb_phishing=args.target,
    )
    world = CampaignWorld(config, train_samples_per_class=args.train_samples)
    result = world.run(verbose=args.verbose)
    print(f"observations={result.observations} detections={result.detections}")
    counters = world.instr.metrics.counters()
    cache_hits = counters.get("preprocess.cache.hit", 0)
    cache_lookups = cache_hits + counters.get("preprocess.cache.miss", 0)
    if cache_lookups:
        print(
            f"feature cache: {cache_hits / cache_lookups * 100:.1f}% hit rate "
            f"({cache_lookups} lookups); "
            f"classify batches: {counters.get('classify.batch.calls', 0)} calls / "
            f"{counters.get('classify.batch.rows', 0)} rows"
        )
    print()
    print(render_table3(build_table3(result.timelines)))
    print()
    print(render_table4(build_table4(result.timelines)))
    print()
    print(render_figure(build_fig9(result.timelines)))
    if args.export_dir:
        from .obs.export import write_telemetry_json

        out = Path(args.export_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_timelines_csv(result.timelines, out / "timelines.csv")
        write_table_json(build_table3(result.timelines), out / "table3.json")
        write_table_json(build_table4(result.timelines), out / "table4.json")
        write_figure_json(build_fig9(result.timelines), out / "fig9.json")
        write_telemetry_json(world.instr, out / "telemetry.json")
        print(f"\nexported to {out}/")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .obs.export import load_telemetry, render_telemetry

    if args.telemetry_file:
        snapshot = load_telemetry(Path(args.telemetry_file))
    else:
        from .sim import CampaignWorld

        config = SimulationConfig(
            seed=args.seed,
            duration_days=args.days,
            target_fwb_phishing=args.target,
        )
        world = CampaignWorld(config, train_samples_per_class=args.train_samples)
        world.run(verbose=args.verbose)
        snapshot = world.instr.telemetry()
    if args.json:
        import json

        print(json.dumps(snapshot, sort_keys=True, indent=2))
    else:
        print(render_telemetry(snapshot))
    return 0


def _cmd_historical(args: argparse.Namespace) -> int:
    from .analysis import build_fig1
    from .analysis.report import render_figure
    from .sim import HistoricalPipeline, HistoricalScenario

    print(render_figure(build_fig1(HistoricalScenario(seed=args.seed)), 0))
    pipeline = HistoricalPipeline(seed=args.seed)
    dataset = pipeline.run(scale=args.scale)
    print(f"\nD1: {len(dataset.fwb_phishing)} FWB phishing URLs "
          f"(Twitter {dataset.n_twitter} / Facebook {dataset.n_facebook}); "
          f"{len(dataset.dyndns_phishing)} dynamic-DNS URLs set aside; "
          f"{dataset.dropped_no_sld} dropped by the SLD filter")
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from .analysis import characterize

    report = characterize(n_sample=args.sample, seed=args.seed)
    print(f"sample size                    {report.n_sample}")
    print(f"confirmed phishing             {report.n_confirmed} "
          f"({report.confirmation_rate * 100:.1f}%)")
    print(f"Cohen's kappa                  {report.kappa:.2f}")
    print(f".com-FWB share                 {report.com_share * 100:.1f}%")
    print(f"median FWB domain age          {report.median_fwb_age_years:.1f} years")
    print(f"median self-hosted domain age  "
          f"{report.median_self_hosted_age_days:.0f} days")
    print(f"search-indexed                 {report.indexed_rate * 100:.1f}%")
    print(f"noindex directive              {report.noindex_rate * 100:.1f}%")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from .analysis import build_table1
    from .analysis.report import render_table1

    rows = build_table1(seed=args.seed, sites_per_class=args.sites,
                        max_pairs=args.pairs)
    print(render_table1(rows))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from .analysis import build_table2
    from .analysis.report import render_table2
    from .sim import build_ground_truth

    dataset = build_ground_truth(n_per_class=args.per_class, seed=args.seed)
    rows = build_table2(dataset.pages, dataset.labels, dataset.web,
                        n_estimators=args.estimators, seed=args.seed)
    print(render_table2(rows))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .config import SeedBank
    from .core.classifier import FreePhishClassifier
    from .core.preprocess import Preprocessor
    from .ml import RandomForestClassifier
    from .sim import build_ground_truth
    from .sitegen import PhishingSiteGenerator

    bank = SeedBank(args.seed)
    dataset = build_ground_truth(n_per_class=120, seed=args.seed)
    classifier = FreePhishClassifier(
        model=RandomForestClassifier(n_estimators=40, random_state=args.seed)
    )
    classifier.fit_pages(dataset.pages, dataset.labels)
    rng = bank.fresh("cli.demo")
    web = dataset.web
    provider = web.fwb_providers["weebly"]
    site = PhishingSiteGenerator().create_site(provider, now=0, rng=rng)
    page = Preprocessor(web).process(site.root_url, now=10)
    prediction = classifier.classify_page(page)
    print(f"url:     {site.root_url}")
    print(f"brand:   {site.metadata['brand']}  variant: {site.metadata['variant']}")
    print(f"verdict: {'PHISHING' if prediction.label else 'benign'} "
          f"(p={prediction.probability:.2f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FreePhish reproduction CLI"
    )
    parser.add_argument("--seed", type=int, default=20231024)
    sub = parser.add_subparsers(dest="command", required=True)

    campaign = sub.add_parser("campaign", help="run a measurement campaign")
    campaign.add_argument("--days", type=int, default=3)
    campaign.add_argument("--target", type=int, default=300)
    campaign.add_argument("--train-samples", type=int, default=150)
    campaign.add_argument("--export-dir", type=str, default="")
    campaign.add_argument("--verbose", action="store_true")
    campaign.set_defaults(func=_cmd_campaign)

    historical = sub.add_parser("historical", help="run the §2 pipeline")
    historical.add_argument("--scale", type=float, default=0.02)
    historical.set_defaults(func=_cmd_historical)

    characterize = sub.add_parser("characterize", help="run the §3 study")
    characterize.add_argument("--sample", type=int, default=1000)
    characterize.set_defaults(func=_cmd_characterize)

    table1 = sub.add_parser("table1", help="code-similarity table")
    table1.add_argument("--sites", type=int, default=6)
    table1.add_argument("--pairs", type=int, default=20)
    table1.set_defaults(func=_cmd_table1)

    table2 = sub.add_parser("table2", help="model-comparison table")
    table2.add_argument("--per-class", type=int, default=200)
    table2.add_argument("--estimators", type=int, default=30)
    table2.set_defaults(func=_cmd_table2)

    demo = sub.add_parser("demo", help="classify one generated attack")
    demo.set_defaults(func=_cmd_demo)

    report = sub.add_parser(
        "report", help="render a telemetry report (run a campaign, or load "
        "a telemetry.json written by campaign --export-dir)"
    )
    report.add_argument(
        "--telemetry-file", type=str, default="",
        help="render a saved telemetry export instead of running a campaign",
    )
    report.add_argument("--days", type=int, default=1)
    report.add_argument("--target", type=int, default=100)
    report.add_argument("--train-samples", type=int, default=120)
    report.add_argument("--json", action="store_true",
                        help="emit the raw telemetry snapshot as JSON")
    report.add_argument("--verbose", action="store_true")
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
