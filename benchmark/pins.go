package main

import (
	"rumble/internal/datagen"
	"rumble/internal/dfs"
	"rumble/internal/jparse"
	"rumble/internal/segment"
	"rumble/internal/server"
	"rumble/internal/vector"
)

// The benchmark's pinned surface: every symbol it uses that is not part of
// package rumble's public API. Later changes may not edit this directory,
// so removing or re-signing any of these needs a `benchmark` issue first —
// otherwise the one harness every claim is measured with stops compiling.
// (From package rumble it uses New, Config, Engine.Compile / Explain /
// Metrics, Statement.CollectProfiled / NewProfile / WriteTo / Mode,
// Profile.Snapshot, ProfileSnapshot, Item.AppendJSON and Int.)
var (
	_ = dfs.ListSplits
	_ = dfs.ReadLines

	_ = jparse.Parse

	_ = segment.SourceHash
	_ = segment.OpenDataset
	_ = segment.Ingest
	_ = segment.NewStore
	_ = (*segment.Store).Open
	_ = segment.Dir
	_ = segment.DefaultCacheBytes
	_ = (*segment.Dataset).FetchBatch
	_ = (*segment.Dataset).NumSegments
	_ = (*segment.Dataset).Meta // and Meta.Rows
	_ = segment.Manifest{}.SourceBytes
	_ = (*segment.ColumnSet).MemBytes
	_ = (*segment.ColumnSet).Col // and ColumnSet.NumRows

	_ = vector.Compare
	_ = vector.CmpGt
	_ = vector.ConstCol
	_ = vector.NewGroups
	_ = (*vector.Groups).Update
	_ = []vector.AggKind{vector.AggCount, vector.AggSum}

	_ = server.New
	_ = server.Options{}
	_ = (*server.Server).Handler // plus POST /query and GET /metrics over HTTP

	_ = datagen.NewConfusionGenerator
	_ = datagen.NewRedditGenerator
	_ = datagen.Subreddits
)
