//! Tutorial delivery simulation: cohorts, sessions, and the survey —
//! the apparatus behind Table I and Fig. 8.
//!
//! The paper's evaluation is attendance (Table I) and Likert survey
//! responses (Fig. 8). Attendance is published data and is reproduced
//! verbatim by [`Session::paper_sessions`]. The *distribution* of survey
//! responses is published only as charts; [`SurveyModel`] is an explicit,
//! seeded generative model — participants with a background-dependent
//! rating tendency answer each question on a 1–5 scale — calibrated so the
//! aggregate matches the paper's "overwhelmingly positive" shape. The
//! model is honest about being a model: it exists so the figure-generation
//! code path (aggregation, histograms, per-audience breakdowns) is real
//! and testable, not so the numbers pretend to be measurements.

use nsdf_util::{derive_seed, splitmix64, Histogram, NsdfError, Result};

/// Professional background of a participant (Table I's audience column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Background {
    /// Computer science experts.
    ComputerScience,
    /// Domain science experts.
    DomainScience,
    /// General public.
    GeneralPublic,
    /// Undergraduate and graduate students.
    Student,
}

impl Background {
    /// Display name matching the paper's table.
    pub fn label(&self) -> &'static str {
        match self {
            Background::ComputerScience => "Computer science experts",
            Background::DomainScience => "Domain science experts",
            Background::GeneralPublic => "General public",
            Background::Student => "Undergraduate and graduate students",
        }
    }
}

/// Delivery modality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Modality {
    /// In-person session.
    InPerson,
    /// Virtual session (Zoom).
    Virtual,
}

impl Modality {
    /// Display name matching the paper's table.
    pub fn label(&self) -> &'static str {
        match self {
            Modality::InPerson => "In-person",
            Modality::Virtual => "Virtual",
        }
    }
}

/// One tutorial delivery (a row of Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    /// Venue name.
    pub venue: String,
    /// Delivery modality.
    pub modality: Modality,
    /// Audience background.
    pub audience: Background,
    /// Number of participants.
    pub participants: u32,
}

impl Session {
    /// The four sessions the paper reports (Table I), verbatim.
    pub fn paper_sessions() -> Vec<Session> {
        vec![
            Session {
                venue: "National Science Data Fabric All Hands Meeting, San Diego Supercomputer Center".into(),
                modality: Modality::InPerson,
                audience: Background::ComputerScience,
                participants: 25,
            },
            Session {
                venue: "Research group, University of Delaware".into(),
                modality: Modality::Virtual,
                audience: Background::DomainScience,
                participants: 15,
            },
            Session {
                venue: "National Science Data Fabric Webinar".into(),
                modality: Modality::Virtual,
                audience: Background::GeneralPublic,
                participants: 36,
            },
            Session {
                venue: "Class at the University of Tennessee Knoxville (undergraduate and graduate students)".into(),
                modality: Modality::InPerson,
                audience: Background::Student,
                participants: 32,
            },
        ]
    }

    /// Total participants across sessions (the paper reports 108).
    pub fn total_participants(sessions: &[Session]) -> u32 {
        sessions.iter().map(|s| s.participants).sum()
    }
}

/// The four survey questions of Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SurveyQuestion {
    /// (a) The study case demonstrated the visualization and analysis
    /// capabilities of NSDF.
    CaseDemonstratedCapabilities,
    /// (b) The tutorial methodology can be generalized for other datasets
    /// and study cases.
    MethodologyGeneralizes,
    /// (c) The dashboard enabled meaningful visualization and analysis.
    DashboardMeaningful,
    /// (d) The workflow was easy to follow and understand.
    EasyToFollow,
}

impl SurveyQuestion {
    /// All questions in figure order.
    pub fn all() -> [SurveyQuestion; 4] {
        [
            SurveyQuestion::CaseDemonstratedCapabilities,
            SurveyQuestion::MethodologyGeneralizes,
            SurveyQuestion::DashboardMeaningful,
            SurveyQuestion::EasyToFollow,
        ]
    }

    /// Figure panel label.
    pub fn panel(&self) -> &'static str {
        match self {
            SurveyQuestion::CaseDemonstratedCapabilities => "8a",
            SurveyQuestion::MethodologyGeneralizes => "8b",
            SurveyQuestion::DashboardMeaningful => "8c",
            SurveyQuestion::EasyToFollow => "8d",
        }
    }

    /// Question text (abridged from the figure captions).
    pub fn text(&self) -> &'static str {
        match self {
            SurveyQuestion::CaseDemonstratedCapabilities => {
                "The study case demonstrated the visualization and analysis capabilities of NSDF"
            }
            SurveyQuestion::MethodologyGeneralizes => {
                "The tutorial methodology can be generalized for other datasets and study cases"
            }
            SurveyQuestion::DashboardMeaningful => {
                "The dashboard enabled meaningful visualization and analysis"
            }
            SurveyQuestion::EasyToFollow => "The workflow was easy to follow and understand",
        }
    }
}

/// Aggregated responses for one question: counts of ratings 1..=5.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuestionTally {
    /// The question.
    pub question: SurveyQuestion,
    /// `counts[r-1]` = number of participants answering `r`.
    pub counts: [u32; 5],
}

impl QuestionTally {
    /// Total responses.
    pub fn total(&self) -> u32 {
        self.counts.iter().sum()
    }

    /// Mean rating.
    pub fn mean(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let sum: u32 = self.counts.iter().enumerate().map(|(i, &c)| (i as u32 + 1) * c).sum();
        sum as f64 / total as f64
    }

    /// Fraction answering 4 or 5 ("agree"/"strongly agree").
    pub fn positive_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (self.counts[3] + self.counts[4]) as f64 / total as f64
    }

    /// Render as an ASCII histogram for the `reproduce` harness.
    pub fn ascii(&self) -> String {
        let mut h = Histogram::new(0.5, 5.5, 5).expect("static bounds");
        for (i, &c) in self.counts.iter().enumerate() {
            for _ in 0..c {
                h.push(i as f64 + 1.0);
            }
        }
        h.ascii(40)
    }
}

/// The generative survey model.
#[derive(Debug, Clone)]
pub struct SurveyModel {
    seed: u64,
}

impl SurveyModel {
    /// Model with the given seed.
    pub fn new(seed: u64) -> SurveyModel {
        SurveyModel { seed }
    }

    /// Rating probabilities (1..=5) for a background on a question.
    ///
    /// Calibration: all audiences skew positive (the paper's result);
    /// experts are slightly more reserved on generality, students rate
    /// ease-of-following highest (the quotes in §V-A).
    fn distribution(background: Background, question: SurveyQuestion) -> [f64; 5] {
        use Background as B;
        use SurveyQuestion as Q;
        match (background, question) {
            (B::ComputerScience, Q::MethodologyGeneralizes) => [0.02, 0.04, 0.16, 0.44, 0.34],
            (B::ComputerScience, _) => [0.01, 0.03, 0.11, 0.40, 0.45],
            (B::DomainScience, Q::DashboardMeaningful) => [0.01, 0.02, 0.09, 0.38, 0.50],
            (B::DomainScience, _) => [0.01, 0.03, 0.11, 0.40, 0.45],
            (B::GeneralPublic, _) => [0.02, 0.05, 0.18, 0.40, 0.35],
            (B::Student, Q::EasyToFollow) => [0.01, 0.02, 0.07, 0.30, 0.60],
            (B::Student, _) => [0.01, 0.04, 0.15, 0.40, 0.40],
        }
    }

    /// Sample one rating in 1..=5.
    fn sample(&self, background: Background, question: SurveyQuestion, participant: u64) -> u32 {
        let dist = Self::distribution(background, question);
        let key = derive_seed(self.seed, &format!("{background:?}/{question:?}"));
        let u = splitmix64(key ^ participant.wrapping_mul(0x9E37_79B9_7F4A_7C15)) as f64
            / u64::MAX as f64;
        let mut cum = 0.0;
        for (i, p) in dist.iter().enumerate() {
            cum += p;
            if u < cum {
                return i as u32 + 1;
            }
        }
        5
    }

    /// Simulate the survey across `sessions`, producing one tally per
    /// question (all sessions pooled, as the paper reports).
    pub fn run(&self, sessions: &[Session]) -> Result<Vec<QuestionTally>> {
        if sessions.is_empty() {
            return Err(NsdfError::invalid("no sessions to survey"));
        }
        let mut tallies: Vec<QuestionTally> = SurveyQuestion::all()
            .into_iter()
            .map(|q| QuestionTally { question: q, counts: [0; 5] })
            .collect();
        let mut participant = 0u64;
        for session in sessions {
            for _ in 0..session.participants {
                for tally in &mut tallies {
                    let r = self.sample(session.audience, tally.question, participant);
                    tally.counts[(r - 1) as usize] += 1;
                }
                participant += 1;
            }
        }
        Ok(tallies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_totals() {
        let sessions = Session::paper_sessions();
        assert_eq!(sessions.len(), 4);
        assert_eq!(Session::total_participants(&sessions), 108);
        assert_eq!(sessions[0].participants, 25);
        assert_eq!(sessions[2].audience, Background::GeneralPublic);
        assert_eq!(sessions[3].modality, Modality::InPerson);
    }

    #[test]
    fn survey_is_deterministic_and_complete() {
        let sessions = Session::paper_sessions();
        let a = SurveyModel::new(42).run(&sessions).unwrap();
        let b = SurveyModel::new(42).run(&sessions).unwrap();
        assert_eq!(a, b);
        for tally in &a {
            assert_eq!(tally.total(), 108, "{:?}", tally.question);
        }
        let c = SurveyModel::new(43).run(&sessions).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn survey_is_overwhelmingly_positive() {
        let tallies = SurveyModel::new(42).run(&Session::paper_sessions()).unwrap();
        for t in &tallies {
            assert!(t.positive_fraction() > 0.65, "{:?}: {}", t.question, t.positive_fraction());
            assert!(t.mean() > 4.0, "{:?}: mean {}", t.question, t.mean());
        }
    }

    #[test]
    fn students_rate_ease_highest() {
        // Run only the student session and compare question means.
        let student_session = vec![Session {
            venue: "class".into(),
            modality: Modality::InPerson,
            audience: Background::Student,
            participants: 3200, // large N to beat sampling noise
        }];
        let tallies = SurveyModel::new(7).run(&student_session).unwrap();
        let ease =
            tallies.iter().find(|t| t.question == SurveyQuestion::EasyToFollow).unwrap().mean();
        for t in &tallies {
            if t.question != SurveyQuestion::EasyToFollow {
                assert!(ease > t.mean(), "{:?}", t.question);
            }
        }
    }

    #[test]
    fn tally_statistics() {
        let t = QuestionTally { question: SurveyQuestion::EasyToFollow, counts: [0, 0, 2, 4, 4] };
        assert_eq!(t.total(), 10);
        assert!((t.mean() - 4.2).abs() < 1e-12);
        assert!((t.positive_fraction() - 0.8).abs() < 1e-12);
        assert_eq!(t.ascii().lines().count(), 5);
    }

    #[test]
    fn empty_sessions_rejected() {
        assert!(SurveyModel::new(1).run(&[]).is_err());
    }

    #[test]
    fn question_metadata() {
        assert_eq!(SurveyQuestion::all().len(), 4);
        assert_eq!(SurveyQuestion::EasyToFollow.panel(), "8d");
        assert!(SurveyQuestion::DashboardMeaningful.text().contains("dashboard"));
    }
}
