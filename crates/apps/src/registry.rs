//! The application registry: the paper's Table 1 suite, in row order.

use dsm_core::{DsmApp, ProtocolKind, RegionTable};
use dsm_plan::{analyze, build_schedule, prove_regions, AppAnalysis, EpochSpec, PlannedApp};

use crate::common::Scale;

/// A named application constructor.
#[derive(Clone, Copy)]
pub struct AppSpec {
    /// Table 1 row label.
    pub name: &'static str,
    /// True for the apps shown in Figure 4 (everything but barnes, whose
    /// "sharing pattern, although iterative, is highly dynamic").
    pub in_overdrive_figure: bool,
    make: fn(Scale) -> Box<dyn DsmApp>,
    make_planned: fn(Scale) -> Box<dyn PlannedApp>,
}

impl AppSpec {
    /// Instantiate the application at `scale`.
    pub fn build(&self, scale: Scale) -> Box<dyn DsmApp> {
        (self.make)(scale)
    }

    /// Instantiate the application with its symbolic access plan attached.
    pub fn build_planned(&self, scale: Scale) -> Box<dyn PlannedApp> {
        (self.make_planned)(scale)
    }

    /// Prove the `bar-r` region table for this app at `scale` on `nprocs`
    /// processes: analyze the lowered plan, build the bar-r epoch schedule,
    /// and run the false-sharing prover over it.
    pub fn prove_regions(&self, scale: Scale, nprocs: usize) -> RegionProof {
        let mut probe = self.build_planned(scale);
        let analysis = analyze(probe.as_mut(), nprocs);
        let schedule = build_schedule(&analysis.plan, ProtocolKind::BarR, analysis.iters);
        let table = prove_regions(&analysis.plan, &analysis.layout, &schedule);
        RegionProof {
            analysis,
            schedule,
            table,
        }
    }
}

/// One app instance's region proof: the table, plus the plan analysis and
/// bar-r schedule it was proven from.
pub struct RegionProof {
    pub analysis: AppAnalysis,
    pub schedule: Vec<EpochSpec>,
    pub table: RegionTable,
}

/// All eight applications in the paper's Table 1 order.
pub fn all_apps() -> Vec<AppSpec> {
    vec![
        AppSpec {
            name: "barnes",
            in_overdrive_figure: false,
            make: |s| Box::new(crate::barnes::Barnes::new(s)),
            make_planned: |s| Box::new(crate::barnes::Barnes::new(s)),
        },
        AppSpec {
            name: "expl",
            in_overdrive_figure: true,
            make: |s| Box::new(crate::expl::Expl::new(s)),
            make_planned: |s| Box::new(crate::expl::Expl::new(s)),
        },
        AppSpec {
            name: "fft",
            in_overdrive_figure: true,
            make: |s| Box::new(crate::fft::Fft3d::new(s)),
            make_planned: |s| Box::new(crate::fft::Fft3d::new(s)),
        },
        AppSpec {
            name: "jacobi",
            in_overdrive_figure: true,
            make: |s| Box::new(crate::jacobi::Jacobi::new(s)),
            make_planned: |s| Box::new(crate::jacobi::Jacobi::new(s)),
        },
        AppSpec {
            name: "shallow",
            in_overdrive_figure: true,
            make: |s| Box::new(crate::shallow::Shallow::new(s)),
            make_planned: |s| Box::new(crate::shallow::Shallow::new(s)),
        },
        AppSpec {
            name: "sor",
            in_overdrive_figure: true,
            make: |s| Box::new(crate::sor::Sor::new(s)),
            make_planned: |s| Box::new(crate::sor::Sor::new(s)),
        },
        AppSpec {
            name: "swm",
            in_overdrive_figure: true,
            make: |s| Box::new(crate::swm::Swm::new(s)),
            make_planned: |s| Box::new(crate::swm::Swm::new(s)),
        },
        AppSpec {
            name: "tomcat",
            in_overdrive_figure: true,
            make: |s| Box::new(crate::tomcatv::Tomcatv::new(s)),
            make_planned: |s| Box::new(crate::tomcatv::Tomcatv::new(s)),
        },
    ]
}

/// Look up one application by its Table 1 name.
pub fn app_by_name(name: &str) -> Option<AppSpec> {
    all_apps().into_iter().find(|a| a.name == name)
}

/// Instantiate one application by name at `scale`.
pub fn make_app(name: &str, scale: Scale) -> Option<Box<dyn DsmApp>> {
    app_by_name(name).map(|a| a.build(scale))
}

/// Instantiate one planned application by name at `scale`.
pub fn make_planned(name: &str, scale: Scale) -> Option<Box<dyn PlannedApp>> {
    app_by_name(name).map(|a| a.build_planned(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eight_apps_in_table_order() {
        let names: Vec<&str> = all_apps().iter().map(|a| a.name).collect();
        assert_eq!(
            names,
            vec!["barnes", "expl", "fft", "jacobi", "shallow", "sor", "swm", "tomcat"]
        );
    }

    #[test]
    fn only_barnes_is_excluded_from_figure_4() {
        for a in all_apps() {
            assert_eq!(a.in_overdrive_figure, a.name != "barnes");
        }
    }

    #[test]
    fn lookup_and_build() {
        let app = make_app("sor", Scale::Small).expect("sor exists");
        assert_eq!(app.name(), "sor");
        assert!(make_app("nonesuch", Scale::Small).is_none());
    }
}
