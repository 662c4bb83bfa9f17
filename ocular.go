// Package ocular is the public API of this reproduction of "Scalable and
// interpretable product recommendations via overlapping co-clustering"
// (Heckel, Vlachos, Parnell, Duenner; ICDE 2017).
//
// The package re-exports the internal building blocks behind a single
// import: the OCuLaR and R-OCuLaR recommenders, the baselines the paper
// compares against (wALS, BPR, user- and item-based CF, modularity and
// BIGCLAM community detection), the evaluation protocol (recall@M, MAP@M),
// dataset loading and synthesis, and the interpretability layer
// (co-cluster extraction, textual rationales).
//
// Quick start:
//
//	d := ocular.SyntheticMovieLens(1)
//	split := ocular.SplitDataset(d.Dataset, 0.75, 42)
//	res, err := ocular.Train(split.Train, ocular.Config{K: 50, Lambda: 30})
//	if err != nil { ... }
//	recs := ocular.Recommend(res.Model, split.Train, user, 10)
//	fmt.Println(ocular.ExplainPair(res.Model, split.Train, user, recs[0]).Render(d.Dataset))
package ocular

import (
	"io"

	"repro/internal/baselines/bpr"
	"repro/internal/baselines/knn"
	"repro/internal/baselines/wals"
	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/cv"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// --- Sparse one-class matrices -----------------------------------------

// Matrix is an immutable sparse binary user-item matrix; Matrix.Has(u, i)
// means r_ui = 1 (a positive example).
type Matrix = sparse.Matrix

// WriteMatrixMarket serializes a matrix in MatrixMarket coordinate pattern
// format, the standard sparse-data interchange format.
func WriteMatrixMarket(w io.Writer, m *Matrix) error { return sparse.WriteMatrixMarket(w, m) }

// ReadMatrixMarket parses a MatrixMarket coordinate stream (pattern,
// integer or real; non-zero values binarize to positives).
func ReadMatrixMarket(r io.Reader) (*Matrix, error) { return sparse.ReadMatrixMarket(r) }

// --- Datasets ------------------------------------------------------------

// Dataset bundles a rating matrix with optional user/item display names.
type Dataset = dataset.Dataset

// Toy is the paper's 12x12 introductory example (Figures 1-3) with its
// planted co-clusters and the three withheld in-cluster recommendations.
type Toy = dataset.Toy

// Planted is a synthetic dataset together with its ground-truth co-clusters.
type Planted = dataset.Planted

// PlantedConfig parameterizes the planted overlapping co-cluster generator.
type PlantedConfig = dataset.PlantedConfig

// LoadOptions controls rating-file parsing.
type LoadOptions = dataset.LoadOptions

// Split is a train/test division of a matrix's positives.
type Split = dataset.Split

// PaperToy reconstructs the paper's introductory example.
func PaperToy() *Toy { return dataset.PaperToy() }

// SyntheticMovieLens generates the MovieLens 1M substitute (DESIGN.md §4).
func SyntheticMovieLens(seed uint64) *Planted { return dataset.SyntheticMovieLens(seed) }

// SyntheticCiteULike generates the CiteULike substitute.
func SyntheticCiteULike(seed uint64) *Planted { return dataset.SyntheticCiteULike(seed) }

// SyntheticB2B generates the proprietary-B2B-DB substitute, with client and
// product names for explanation demos.
func SyntheticB2B(seed uint64) *Planted { return dataset.SyntheticB2B(seed) }

// SyntheticNetflix generates the Netflix substitute at a linear scale in
// (0, 1] (Fig 7 scalability sweeps).
func SyntheticNetflix(seed uint64, scale float64) *Planted {
	return dataset.SyntheticNetflix(seed, scale)
}

// SyntheticGeneExpression generates the gene-expression biclustering
// substrate of the paper's concluding application (genes x conditions with
// overlapping transcription modules).
func SyntheticGeneExpression(seed uint64) *Planted { return dataset.SyntheticGeneExpression(seed) }

// SyntheticSmall generates a small planted dataset that trains in
// milliseconds, for tests and demos.
func SyntheticSmall(seed uint64) *Planted { return dataset.SyntheticSmall(seed) }

// GeneratePlanted draws a dataset from an explicit planted co-cluster
// configuration.
func GeneratePlanted(cfg PlantedConfig, seed uint64) (*Planted, error) {
	return dataset.GeneratePlanted(cfg, rng.New(seed))
}

// LoadRatings parses a ratings stream (MovieLens ::, CSV, TSV formats).
func LoadRatings(src io.Reader, name string, opts LoadOptions) (*Dataset, error) {
	return dataset.LoadRatings(src, name, opts)
}

// MovieLensOptions are LoadOptions for MovieLens ratings.dat with the
// paper's rating >= 3 binarization.
func MovieLensOptions() LoadOptions { return dataset.MovieLensOptions() }

// SplitDataset splits the positives of m into train (trainFrac) and test
// matrices, the paper's 75/25 protocol. Reseed to draw independent problem
// instances.
func SplitDataset(d *Dataset, trainFrac float64, seed uint64) Split {
	return dataset.SplitEntries(d.R, trainFrac, rng.New(seed))
}

// Subsample keeps a uniformly random frac of m's positives, preserving the
// shape — the mechanism of the Fig 7 scalability sweep.
func Subsample(m *Matrix, frac float64, seed uint64) *Matrix {
	return dataset.SubsampleEntries(m, frac, rng.New(seed))
}

// --- OCuLaR / R-OCuLaR ----------------------------------------------------

// Config holds OCuLaR hyper-parameters (K, Lambda, Relative) and solver
// settings.
type Config = core.Config

// Model holds fitted OCuLaR affiliation factors.
type Model = core.Model

// Result bundles a trained model with its convergence trace.
type Result = core.Result

// Train fits an OCuLaR model (R-OCuLaR when cfg.Relative is set) to the
// positives in r.
func Train(r *Matrix, cfg Config) (*Result, error) { return core.Train(r, cfg) }

// ReadModel deserializes a model written with Model.WriteTo. It buffers the
// stream (never more than its header declares) and checks it exactly as
// OpenMappedModel and MappedModel.Verify check a file.
func ReadModel(r io.Reader) (*Model, error) { return core.ReadModel(r) }

// MappedModel is a model served directly out of an mmapped v2 file —
// O(1) open and reload, zero-copy factors, the trained model's scores.
type MappedModel = core.MappedModel

// OpenMappedModel maps the v2 model file at path in O(1). The retired v1
// format is refused (by every reader) with an error wrapping
// core.ErrLegacyFormat.
func OpenMappedModel(path string) (*MappedModel, error) { return core.OpenMappedModel(path) }

// --- Evaluation -----------------------------------------------------------

// Recommender is the scoring interface all algorithms implement.
type Recommender = eval.Recommender

// Metrics aggregates recall@M, MAP@M and precision@M over evaluated users.
type Metrics = eval.Metrics

// Evaluate scores a recommender's top-M lists against test positives.
func Evaluate(rec Recommender, train, test *Matrix, m int) Metrics {
	return eval.Evaluate(rec, train, test, m)
}

// EvaluateCurve evaluates several cutoffs in one pass (Fig 5 curves);
// ms must be strictly ascending.
func EvaluateCurve(rec Recommender, train, test *Matrix, ms []int) []Metrics {
	return eval.EvaluateCurve(rec, train, test, ms)
}

// Recommend returns the top-M item indices for user u among items without
// training positives, best first.
func Recommend(rec Recommender, train *Matrix, u, m int) []int {
	return eval.TopM(rec, train, u, m, nil)
}

// AUC computes the mean per-user area under the ROC curve on held-out
// positives — the criterion BPR optimizes in expectation.
func AUC(rec Recommender, train, test *Matrix) float64 {
	return eval.AUC(rec, train, test)
}

// --- Interpretability -------------------------------------------------------

// CoCluster is an extracted user-item co-cluster.
type CoCluster = explain.CoCluster

// CoClusterStats aggregates co-cluster shape metrics (Fig 6).
type CoClusterStats = explain.Stats

// Explanation is a recommendation rationale (Section IV-C, Fig 10).
type Explanation = explain.Explanation

// ExplainOptions tunes explanation construction.
type ExplainOptions = explain.Options

// CoClusters extracts the model's co-clusters at the given membership
// threshold.
func CoClusters(m *Model, threshold float64) []CoCluster {
	return explain.ExtractCoClusters(m, threshold)
}

// CoClusterStatsOf computes shape metrics of clusters against r.
func CoClusterStatsOf(clusters []CoCluster, r *Matrix) CoClusterStats {
	return explain.ComputeStats(clusters, r)
}

// ExplainPair builds the rationale for recommending item i to user u with
// default options.
func ExplainPair(m *Model, train *Matrix, u, i int) Explanation {
	return explain.Explain(m, train, u, i, explain.Options{})
}

// ExplainPairOpts is ExplainPair with explicit options.
func ExplainPairOpts(m *Model, train *Matrix, u, i int, opts ExplainOptions) Explanation {
	return explain.Explain(m, train, u, i, opts)
}

// RenderProbabilityMatrix draws the fitted probability grid of Fig 3 for
// small matrices.
func RenderProbabilityMatrix(m *Model, r *Matrix) string {
	return explain.RenderProbabilityMatrix(m, r)
}

// --- Baselines ---------------------------------------------------------------

// WALSConfig holds wALS hyper-parameters (Pan et al. 2008).
type WALSConfig = wals.Config

// WALSModel is a fitted wALS factorization.
type WALSModel = wals.Model

// TrainWALS fits the weighted-ALS one-class baseline.
func TrainWALS(r *Matrix, cfg WALSConfig) (*WALSModel, error) { return wals.Train(r, cfg) }

// BPRConfig holds BPR hyper-parameters (Rendle et al. 2009).
type BPRConfig = bpr.Config

// BPRModel is a fitted BPR factorization.
type BPRModel = bpr.Model

// TrainBPR fits the Bayesian personalized ranking baseline.
func TrainBPR(r *Matrix, cfg BPRConfig) (*BPRModel, error) { return bpr.Train(r, cfg) }

// KNNConfig holds the neighborhood size for the k-NN baselines.
type KNNConfig = knn.Config

// UserKNNModel is a user-based cosine CF model.
type UserKNNModel = knn.UserModel

// ItemKNNModel is an item-based cosine CF model.
type ItemKNNModel = knn.ItemModel

// TrainUserKNN fits user-based collaborative filtering.
func TrainUserKNN(r *Matrix, cfg KNNConfig) (*UserKNNModel, error) { return knn.TrainUser(r, cfg) }

// TrainItemKNN fits item-based collaborative filtering.
func TrainItemKNN(r *Matrix, cfg KNNConfig) (*ItemKNNModel, error) { return knn.TrainItem(r, cfg) }

// --- Community detection (Fig 2 comparison) -----------------------------------

// Graph is an undirected graph.
type Graph = graph.Graph

// Partition is a non-overlapping community assignment.
type Partition = community.Partition

// BigClam is a fitted overlapping cluster-affiliation model.
type BigClam = community.BigClam

// BigClamConfig parameterizes a BIGCLAM fit.
type BigClamConfig = community.BigClamConfig

// BipartiteGraph lifts a rating matrix into its user-item graph (users
// first, then items offset by the user count).
func BipartiteGraph(r *Matrix) *Graph { return graph.NewBipartite(r) }

// DetectModularity runs greedy non-overlapping modularity maximization.
func DetectModularity(g *Graph) *Partition { return community.GreedyModularity(g) }

// FitBigClam fits the BIGCLAM overlapping community model.
func FitBigClam(g *Graph, cfg BigClamConfig) (*BigClam, error) {
	return community.FitBigClam(g, cfg)
}

// BigClamDelta returns the default BIGCLAM membership threshold for g.
func BigClamDelta(g *Graph) float64 { return community.DefaultDelta(g) }

// CommunityRecommendations converts communities over a bipartite graph's
// node ids into candidate (user, item) recommendations: same-community
// pairs without an observed positive.
func CommunityRecommendations(nodeSets [][]int, r *Matrix) [][2]int {
	return community.BipartiteRecommendations(nodeSets, r.Rows(), r.Has)
}

// --- Hyper-parameter search ------------------------------------------------

// GridSearchGrid is the (K, lambda) search space.
type GridSearchGrid = cv.Grid

// GridSearchOptions tunes the search.
type GridSearchOptions = cv.Options

// GridSearchResult is a completed search with its best cell.
type GridSearchResult = cv.Result

// GridSearch trains one OCuLaR model per (K, lambda) cell and scores it on
// test (Section IV-B protocol; Figs 6 and 9).
func GridSearch(train, test *Matrix, grid GridSearchGrid, opts GridSearchOptions) (*GridSearchResult, error) {
	return cv.Search(train, test, grid, opts)
}

// GridSearchKFold runs the grid search with k-fold cross-validation,
// averaging every cell's metrics over the folds — the paper's "determined
// from the data via cross-validation" protocol in full.
func GridSearchKFold(r *Matrix, grid GridSearchGrid, folds int, seed uint64, opts GridSearchOptions) (*GridSearchResult, error) {
	return cv.SearchKFold(r, grid, folds, seed, opts)
}
